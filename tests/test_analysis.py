import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit, log_expit, logit

from cubelab import analysis, kernels
from cubelab.analysis import (
    bounds_report,
    contraction_certificate,
    detailed_balance_residual,
    dmaps_empirical_delta,
    naive_mh_oracle,
    run_certificates,
    spectral_summary,
    stationary,
    stationary_direct,
    tv_distance,
    wasserstein_hamming,
    wasserstein_hamming_lp,
)
from cubelab.errors import CapabilityError, NumericalError, ParameterError
from cubelab.kernels import (
    KernelMatrix,
    dmaps_matrix,
    dula_matrix,
    dups_matrix,
    gibbs_matrix,
    kernel_matrix,
)
from cubelab.models import (BitsMixture, CurieWeiss, IndependentBits, IsingGrid, exact_target,
                            permutes_every_coordinate)
from cubelab.scores import SCORE_KINDS, ScoreField, smooth_beta_constants
from cubelab.statespace import (adjacent_pairs, all_signs, cube_orbits, hamming, isometry_images,
                                orbit_minima, state_of)

import product_laws


# ---------------------------------------------------------------------------
# stationary distributions


@pytest.mark.parametrize("model", [
    IndependentBits(0.5, 4), BitsMixture(0.5, 4),
    IsingGrid(2, 2, 0.4, 0.1), CurieWeiss(0.2, 0.0, 4),
])
def test_gibbs_stationary_equals_target(model):
    t = gibbs_matrix(model, 0.5)
    assert tv_distance(stationary(t), exact_target(model)) <= 1e-12


def test_gth_agrees_with_direct_solve():
    for model in (BitsMixture(0.5, 5), IsingGrid(2, 3, 0.4, 0.1)):
        for eta in (0.3, 0.7):
            t = dups_matrix(model, ScoreField(model, "stein"), eta)
            pi = stationary(t)
            pid = stationary_direct(t)
            assert np.abs(pi - pid).sum() <= 1e-10
            assert np.abs(pi @ t.probs - pi).sum() <= 1e-13


def test_stationary_of_a_periodic_kernel():
    # the star's centre and leaves alternate, so no power of the kernel
    # converges, but the law is still (1/2, 1/6, 1/6, 1/6)
    star = np.array([[0, 1 / 3, 1 / 3, 1 / 3], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    pi = stationary(KernelMatrix(star, 1.0, "gibbs"))
    np.testing.assert_allclose(pi, [1 / 2, 1 / 6, 1 / 6, 1 / 6], rtol=0, atol=1e-15)


@pytest.mark.parametrize("sampler", ["gibbs", "dmala"])
def test_stationary_of_a_metastable_kernel(sampler):
    # both samplers are reversible for the target, which is then an
    # independent oracle; the chain crosses between its two modes so rarely
    # that a small residual || pi K - pi || does not pin their split
    model = CurieWeiss(3.0, 0.2, 6)
    field = ScoreField(model, "glauber") if sampler == "dmala" else None
    pi = stationary(kernel_matrix(model, sampler, field, 0.5))
    assert tv_distance(pi, exact_target(model)) <= 1e-15


def test_stationary_direct_rejects_a_result_that_lost_precision():
    # the linear solve subtracts, and on this kernel returns an entry of -0.62
    model = CurieWeiss(1.0, 0.2, 6)
    kernel = kernel_matrix(model, "dmala", ScoreField(model, "glauber"), 0.5)
    with pytest.raises(NumericalError, match="lost precision"):
        stationary_direct(kernel)
    assert tv_distance(stationary(kernel), exact_target(model)) <= 1e-12


def test_stationary_sticky_kernel():
    # spectral gap around 1e-5
    model = IsingGrid(2, 2, 0.4, 0.1)
    t = gibbs_matrix(model, 0.2)
    pi = stationary(t)
    assert tv_distance(pi, exact_target(model)) <= 1e-12


def test_stationary_of_a_steep_target_is_rescaled_not_overflowed():
    """At beta = -50 the Curie-Weiss law spans far more than the float
    range, which rebuilding it from state 0 up passes; the law comes back
    with its lightest states underflowed to 0 and equal to the target to
    1.3e-16 relative everywhere else, at W1 0."""
    model = CurieWeiss(-50.0, 0.0, 4)
    kernel = gibbs_matrix(model, 0.3)
    pi, target = stationary(kernel), exact_target(model)
    heavy = target > 1e-300
    assert (np.abs(pi[heavy] / target[heavy] - 1.0) <= 1.3e-16).all()
    assert (pi[~heavy] <= 1e-300).all() and (~heavy).any()
    assert wasserstein_hamming(pi, target, kernel.symmetries) == 0.0


def test_an_overflow_in_state_reduction_is_one_numerical_error():
    """Eliminating a state whose outflow is below the float range overflows;
    that is one NumericalError naming it, not a warning and not a NaN pivot
    read as reducibility."""
    model = CurieWeiss(40.0, 0.5, 6)
    kernel = kernel_matrix(model, "dmala", ScoreField(model, "glauber"), 0.1)
    with pytest.raises(NumericalError, match="dmala kernel at eta=0.1 overflowed in GTH state "
                                             "reduction: overflow encountered in divide"):
        stationary(kernel)


# ---------------------------------------------------------------------------
# spectra


def test_eigensolver_failure_is_a_numerical_error(monkeypatch):
    kernel = gibbs_matrix(IndependentBits(0.5, 3), 0.5)

    def diverge(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", diverge)
    with pytest.raises(NumericalError, match="eigensolver failed"):
        spectral_summary(kernel)


def test_gibbs_spectrum_tensorizes_on_bits():
    for d, eta in ((3, 0.5), (6, 1.0)):
        t = gibbs_matrix(IndependentBits(0.5, d), eta)
        summary = spectral_summary(t)
        assert summary.reversible
        assert summary.lambda2 == pytest.approx(1 - math.exp(-2 / eta), abs=1e-10)


def test_identity_kernel_sentinel():
    t = KernelMatrix(np.eye(8), math.inf, "gibbs")
    summary = spectral_summary(t, pi=np.full(8, 1 / 8))
    assert summary.lambda2 == 1.0
    assert summary.t_rel == math.inf


def test_two_state_chain_closed_form():
    a, b = 0.3, 0.7
    t = KernelMatrix(np.array([[1 - a, a], [b, 1 - b]]), 1.0, "gibbs")
    summary = spectral_summary(t)
    assert summary.lambda2 == pytest.approx(abs(1 - a - b), abs=1e-12)


def test_nonreversible_path_uses_modulus():
    model = BitsMixture(0.5, 3)
    t = dups_matrix(model, ScoreField(model, "stein"), 0.5)
    summary = spectral_summary(t)
    assert not summary.reversible
    assert 0.0 <= summary.lambda2 < 1.0
    assert summary.t_rel >= 1.0


# ---------------------------------------------------------------------------
# distances


def test_wasserstein_identities():
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(16))
    assert wasserstein_hamming(p, p) == 0.0
    e0, e5 = np.zeros(16), np.zeros(16)
    e0[0] = 1.0
    e5[5] = 1.0
    assert wasserstein_hamming(e0, e5) == pytest.approx(
        hamming(state_of(0, 4), state_of(5, 4)))


def test_wasserstein_matches_coupling_lp():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        assert wasserstein_hamming(p, q) == pytest.approx(
            wasserstein_hamming_lp(p, q), abs=1e-9)


def test_wasserstein_metric_properties():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = rng.dirichlet(np.ones(64))
        q = rng.dirichlet(np.ones(64))
        r = rng.dirichlet(np.ones(64))
        wpq = wasserstein_hamming(p, q)
        assert wpq == pytest.approx(wasserstein_hamming(q, p), abs=1e-11)
        assert wpq <= wasserstein_hamming(p, r) + wasserstein_hamming(r, q) + 1e-11
        # metric comparison against total variation
        tv = tv_distance(p, q)
        assert tv - 1e-12 <= wpq <= 6 * tv + 1e-12


def test_wasserstein_fuzz_against_lp():
    """Adversarial agreement check: sparse supports, near-identical rows,
    point-mass mixtures, and real kernel rows at d up to 6."""
    rng = np.random.default_rng(314159)
    cases = []
    for d in (2, 4, 6):
        n = 1 << d
        for _ in range(6):
            cases.append((rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))))
        # sparse supports
        for _ in range(4):
            p = np.zeros(n)
            q = np.zeros(n)
            p[rng.choice(n, 2, replace=False)] = (0.3, 0.7)
            q[rng.choice(n, 3, replace=False)] = (0.2, 0.3, 0.5)
            cases.append((p, q))
        # nearly identical pairs, like adjacent kernel rows
        base = rng.dirichlet(np.ones(n))
        bump = rng.dirichlet(np.ones(n)) * 1e-6
        near = base + bump
        cases.append((base, near / near.sum()))
    # genuine kernel rows from a coupled model
    model = BitsMixture(0.5, 5)
    t = dups_matrix(model, ScoreField(model, "stein"), 0.4).probs
    for k in (0, 7, 31):
        cases.append((t[k], t[k ^ 1]))
        cases.append((t[k], t[k ^ 16]))
    # product-law rows, which take the closed form sum_i |P_i - Q_i|
    t = dula_matrix(model, ScoreField(model, "glauber"), 0.4).probs
    cases += [(t[0], t[1]), (t[5], t[5 ^ 8]), (t[3], t[28])]
    bits = IndependentBits(0.5, 6)
    t = dups_matrix(bits, ScoreField(bits, "stein"), 0.4).probs
    cases += [(t[0], t[32]), (t[9], t[9 ^ 4])]
    # a near-product row just past the product-law tolerance goes to the LP
    bump = np.zeros(64)
    bump[np.argsort(t[9])[-2:]] = (1e-9, -1e-9)
    cases.append((t[9] + bump, t[9 ^ 4]))
    for p, q in cases:
        w = wasserstein_hamming(p, q)
        ref = wasserstein_hamming_lp(p, q)
        assert w == pytest.approx(ref, abs=2e-9), (w, ref)


def test_transport_lp_flow_is_checked_against_its_supplies(monkeypatch):
    """The constraint marginals of each LP make a flow that moves the scaled
    supplies at the cost of the dual value; a flow that misses them raises."""
    rng = np.random.default_rng(5)
    b = rng.dirichlet(np.ones(16), size=3) - rng.dirichlet(np.ones(16), size=3)
    lp = analysis._quotient_lp(4, (), 3)
    exact = analysis._dual_lp_values(b, lp)
    solve = analysis.linprog

    def skewed(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.ineqlin.marginals[:] *= 1.0 + 1e-6
        return res

    monkeypatch.setattr(analysis, "linprog", skewed)
    with pytest.raises(NumericalError, match="primal flow misses") as err:
        analysis._dual_lp_values(b, lp)
    assert err.value.residual > analysis._FLOW_TOL
    for p, q, w in zip(b.clip(0), (-b).clip(0), exact):
        assert w == pytest.approx(wasserstein_hamming_lp(p / p.sum(), q / q.sum()) * p.sum(),
                                  abs=1e-9)


@pytest.mark.parametrize("d", [7, 8, 9, 10])
def test_transport_lp_matches_product_form_on_dula_rows(d, monkeypatch):
    # dula rows are product laws, so W1 = sum_i |P_i - Q_i| exactly; a
    # negative tolerance sends every pair through the dual LP instead
    monkeypatch.setattr(analysis, "_PRODUCT_TOL", -1.0)
    plus = (all_signs(d) > 0).astype(np.float64)
    grids = {7: (1, 7), 8: (2, 4), 9: (3, 3), 10: (2, 5)}
    rng = np.random.default_rng(d)
    for model in (CurieWeiss(0.2, 0.1, d), IsingGrid(*grids[d], 0.4, 0.1)):
        t = dula_matrix(model, ScoreField(model, "glauber"), 0.5).probs
        for k in (0, int(rng.integers(1, 1 << d))):
            for other in (k ^ 1 << int(rng.integers(d)), int(rng.integers(1 << d))):
                exact = float(np.abs((t[k] - t[other]) @ plus).sum())
                assert wasserstein_hamming(t[k], t[other]) == pytest.approx(exact, abs=1e-12)


def test_unbalanced_supplies_rejected():
    # both pass the 1e-9 normalization check, but their masses are 5e-10 apart
    p = np.full(8, 1 / 8)
    q = p.copy()
    q[0] += 5e-10
    with pytest.raises(ValueError, match="unbalanced"):
        wasserstein_hamming(p, q)


def _exchangeable_models(d):
    """bits, mixture and curieweiss at d, with and without the global flip."""
    return [IndependentBits(0.4, d), BitsMixture(0.5, d),
            CurieWeiss(0.6 / d, 0.2 if d % 2 else 0.0, d)]


def _check_block_spectrum(kernel, config):
    """The spectrum read off the S_d blocks against the dense eigensolve of
    the same kernel on the cube: the moduli as multisets to 1e-13, the
    first two power sums against tr K and tr K^2 (the signs the moduli
    drop), and lambda2, t_rel and reversibility as `spectral_summary` gives
    them."""
    cube = replace(kernel, symmetries=())
    pi = stationary(kernel)
    summary = spectral_summary(kernel, pi)
    values = analysis._eigenvalues(kernel, pi, summary.reversible)
    mods = np.sort(np.abs(values))
    dense = np.sort(np.abs(np.linalg.eigvals(cube.probs)))
    assert mods.shape == dense.shape, f"{mods.size} block moduli, {dense.size} dense: {config}"
    gap = np.abs(mods - dense)
    worst = int(gap.argmax())
    assert gap[worst] <= 1e-13, (
        f"modulus {mods[worst]!r} on the blocks, {dense[worst]!r} dense: {config}")
    t = cube.probs
    for power, block_sum, dense_sum in ((1, values.sum(), np.trace(t)),
                                        (2, (values ** 2).sum(), (t * t.T).sum())):
        assert abs(block_sum - dense_sum) <= 1e-12, (
            f"sum of eigenvalue powers {power}: {block_sum!r} on the blocks, "
            f"{dense_sum!r} dense: {config}")
    full = spectral_summary(cube, pi)
    assert summary.reversible == full.reversible, config
    assert abs(summary.lambda2 - full.lambda2) <= 1e-13, (
        f"lambda2 {summary.lambda2!r} on the blocks, {full.lambda2!r} dense: {config}")
    # t_rel = 1/(1 - lambda2) moves by t_rel^2 times lambda2's error
    assert abs(summary.t_rel - full.t_rel) <= 1e-13 * summary.t_rel * full.t_rel, (
        f"t_rel {summary.t_rel!r} on the blocks, {full.t_rel!r} dense: {config}")


@pytest.mark.parametrize("dim", range(3, 9))
def test_block_spectrum_matches_the_dense_eigensolve(dim):
    """Every exchangeable model, sampler and score at two step sizes: the
    spectrum from the floor(d/2) + 1 blocks of `statespace.symmetric_blocks`
    is the dense one."""
    for model in _exchangeable_models(dim):
        for eta in (0.3, 0.6):
            for config, kernel in _kernels(model, eta):
                _check_block_spectrum(kernel, (model, eta, *config))


@pytest.mark.parametrize("model, sampler, kind, eta", [
    (BitsMixture(0.5, 9), "dups", "stein", 0.6), (CurieWeiss(0.05, 0.1, 9), "dmaps", "glauber", 0.3),
    (IndependentBits(0.4, 10), "gibbs", None, 0.6), (CurieWeiss(0.06, 0.0, 10), "dmala", "gibbs", 0.6),
], ids=repr)
def test_block_spectrum_matches_the_dense_eigensolve_at_d_9_and_10(model, sampler, kind, eta):
    kernel = kernel_matrix(model, sampler, ScoreField(model, kind) if kind else None, eta)
    _check_block_spectrum(kernel, (model, sampler, kind, eta))


@pytest.mark.parametrize("dim", range(3, 12))
def test_block_lambda2_matches_the_product_law(dim):
    """On IndependentBits, past the d = 8 reach of the dense tests, the
    dula and dups lambda2 from the blocks is |1 - a - b| of
    `product_laws` to 1e-12 relative, for every score (d 3-6 see more
    step sizes in `test_dense_path_matches_the_product_law`)."""
    beta, eta = 0.3, 0.5
    model = IndependentBits(beta, dim)
    for sampler in product_laws.SAMPLERS:
        for kind in SCORE_KINDS:
            kernel = kernel_matrix(model, sampler, ScoreField(model, kind), eta)
            lam2 = spectral_summary(kernel).lambda2
            exact = product_laws.kappa(sampler, kind, beta, eta)
            assert lam2 == pytest.approx(exact, rel=1e-12, abs=0), (
                f"lambda2 {lam2!r} on the blocks, {exact!r} in closed form: "
                f"{model!r} {sampler} {kind} eta={eta}")


def _solved_sides(monkeypatch):
    """The side of every matrix handed to an eigensolver."""
    sides = []
    for name in ("eigvals", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, solve=solve: sides.append(m.shape[0]) or solve(m))
    return sides


def test_kernels_without_every_permutation_take_the_dense_eigensolve(monkeypatch):
    """An Ising grid's kernel, and a bits kernel that carries the
    transposition alone or the global flip alone, are solved as one
    2^d-square matrix, with the lambda2 of the kernel on the cube; the
    same bits kernel with every permutation is solved in blocks."""
    sides = _solved_sides(monkeypatch)
    grid = IsingGrid(2, 3, 0.4, 0.1)
    bits = IndependentBits(0.0, 6)
    dups = dups_matrix(bits, ScoreField(bits, "glauber"), 0.5)
    transposition, shift, flip = bits.symmetries()
    kernels = [dups_matrix(grid, ScoreField(grid, "stein"), 0.5),
               replace(dups, symmetries=(transposition,)), replace(dups, symmetries=(flip,)),
               replace(gibbs_matrix(bits, 0.5), symmetries=(transposition,))]
    for kernel in kernels:
        cube = replace(kernel, symmetries=())
        pi = stationary(cube)
        sides.clear()
        lam2 = spectral_summary(kernel, pi).lambda2
        assert sides == [64], (kernel.symmetries, sides)
        assert lam2 == spectral_summary(cube, pi).lambda2
    sides.clear()
    spectral_summary(dups)
    assert sides == [7, 5, 3, 1]


@pytest.mark.parametrize("model", [
    IndependentBits(0.4, 1), IndependentBits(0.4, 2), BitsMixture(0.5, 2),
    CurieWeiss(0.3, 0.2, 2), IsingGrid(1, 2, 0.4, 0.1),
], ids=repr)
def test_kernels_at_d_1_and_2_keep_the_dense_eigensolve(monkeypatch, model):
    """At d <= 2 every kernel of these targets carries every coordinate
    permutation (none at d = 1, the transposition at d = 2), yet it is
    solved as one 2^d-square matrix, with the lambda2 of the kernel on the
    cube bit for bit."""
    sides = _solved_sides(monkeypatch)
    for config, kernel in _kernels(model, 0.6):
        assert permutes_every_coordinate(model.dim, kernel.symmetries), config
        cube = replace(kernel, symmetries=())
        pi = stationary(cube)
        sides.clear()
        lam2 = spectral_summary(kernel, pi).lambda2
        assert sides == [1 << model.dim], config
        assert lam2 == spectral_summary(cube, pi).lambda2, config


def test_wasserstein_needs_a_power_of_two_length():
    for fn in (tv_distance, wasserstein_hamming, wasserstein_hamming_lp):
        with pytest.raises(ValueError, match="length 6 is not a power of two"):
            fn(np.full(6, 1 / 6), np.full(6, 1 / 6))


def test_a_law_of_the_wrong_length_for_the_kernel_is_rejected():
    kernel = gibbs_matrix(IndependentBits(0.3, 5), 0.4)
    with pytest.raises(ValueError, match="p has 4 entries for a kernel on 32 states"):
        detailed_balance_residual(kernel, np.full(4, 0.25))
    with pytest.raises(ValueError, match="p has 4 entries for a kernel on 32 states"):
        spectral_summary(kernel, np.full(4, 0.25))
    # a law given as a list is read as an array, as detailed_balance_residual reads it
    pi = stationary(kernel)
    assert spectral_summary(kernel, pi.tolist()) == spectral_summary(kernel, pi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distributions_reject_non_finite_entries(bad):
    p = np.full(4, 0.25)
    q = p.copy()
    q[3] = bad
    for fn in (tv_distance, wasserstein_hamming, wasserstein_hamming_lp):
        with pytest.raises(ValueError, match="q has a non-finite entry .* at index 3"):
            fn(p, q)
    with pytest.raises(ValueError, match="non-finite"):
        detailed_balance_residual(gibbs_matrix(IndependentBits(0.3, 2), 0.4), q)


@pytest.mark.parametrize("q, message", [
    (np.full((2, 2), 0.25), "q must be one-dimensional"),
    (np.array([0.75, 0.25, 0.25, -0.25]), "q has a negative entry"),
    (np.full(4, 0.3), "q is not normalized"),
    (np.full(8, 0.125), "distributions have different lengths"),
    (np.array([]), "q is empty"),
], ids=["two-dimensional", "negative", "unnormalized", "unequal-lengths", "empty"])
def test_distributions_reject_malformed_input(q, message):
    p = np.full(4, 0.25)
    for fn in (tv_distance, wasserstein_hamming, wasserstein_hamming_lp):
        with pytest.raises(ValueError, match=message):
            fn(p, q)
    # detailed_balance_residual names its one law p
    if message != "distributions have different lengths":
        with pytest.raises(ValueError, match=message.replace("q ", "p ", 1)):
            detailed_balance_residual(gibbs_matrix(IndependentBits(0.3, 2), 0.4), q)


def test_tv_examples():
    p = np.zeros(4)
    p[0] = 1.0
    q = np.zeros(4)
    q[3] = 1.0
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == 1.0


# ---------------------------------------------------------------------------
# stationary laws and transport on the orbits of the declared symmetries


# every exchangeable family, with and without the global flip, at d <= 8, and
# Ising grids with and without field
ORBIT_MODELS = [
    IndependentBits(0.4, 8), IndependentBits(0.0, 5), BitsMixture(0.5, 8), BitsMixture(0.3, 3),
    CurieWeiss(0.3, 0.1, 8), CurieWeiss(0.2, 0.0, 6), CurieWeiss(0.25, 0.3, 2),
    IsingGrid(2, 3, 0.4, 0.1), IsingGrid(2, 4, 0.3, 0.0), IsingGrid(1, 5, 0.3, 0.1, periodic=True),
]


def _kernels(model, eta, configs=None):
    for sampler, kind in configs or KERNEL_CONFIGS:
        yield (sampler, kind), kernel_matrix(model, sampler,
                                             ScoreField(model, kind) if kind else None, eta)


@pytest.mark.parametrize("model", ORBIT_MODELS, ids=repr)
def test_orbit_stationary_matches_full_gth(model):
    """The law of the chain lumped onto the orbits, spread evenly over each
    orbit, is the full GTH law of every sampler and score to 1e-13 relative
    in every entry."""
    for eta in (0.3, 0.7):
        for config, kernel in _kernels(model, eta):
            assert kernel.symmetries == model.symmetries(), config
            full = stationary(replace(kernel, symmetries=()))
            lumped = stationary(kernel)
            rel = float((np.abs(lumped - full) / full).max())
            assert rel <= 1e-13, (config, eta, rel)


@pytest.mark.parametrize("model", [BitsMixture(0.5, 5), CurieWeiss(0.3, 0.2, 6),
                                   IsingGrid(2, 3, 0.4, 0.1)], ids=repr)
def test_orbit_stationary_agrees_with_direct_solve(model):
    for config, kernel in _kernels(model, 0.5):
        pi = stationary(kernel)
        assert np.abs(pi - stationary_direct(kernel)).sum() <= 1e-10, config
        assert np.abs(pi @ kernel.probs - pi).sum() <= 1e-13, config


@pytest.mark.parametrize("dim", [3, 6, 8])
def test_orbit_stationary_is_the_product_law(dim):
    """On IndependentBits the dula and dups laws are products of one
    Bernoulli per coordinate, in closed form in `product_laws`."""
    plus = np.bitwise_count(np.arange(1 << dim))
    for beta in (0.1, 0.7):
        model = IndependentBits(beta, dim)
        for eta in (0.3, 1.2):
            for sampler in product_laws.SAMPLERS:
                for kind in SCORE_KINDS:
                    tag = (beta, eta, sampler, kind)
                    kernel = kernel_matrix(model, sampler, ScoreField(model, kind), eta)
                    pi = stationary(kernel)
                    lp = product_laws.log_plus_probability(sampler, kind, beta, eta)
                    law = np.exp(plus * lp + (dim - plus) * math.log(-math.expm1(lp)))
                    assert float((np.abs(pi - law) / law).max()) <= 1e-12, tag
                    w1 = wasserstein_hamming(pi, exact_target(model), kernel.symmetries)
                    assert w1 == pytest.approx(
                        product_laws.stationary_w1(sampler, kind, beta, eta, dim),
                        rel=0, abs=1e-13), tag


def _invariant_law(model, rng):
    """A random law that is constant on each orbit of the model's symmetries."""
    d = model.dim
    orbit = orbit_minima(1 << d, [isometry_images(d, *g) for g in model.symmetries()])
    reps, of, sizes = np.unique(orbit, return_inverse=True, return_counts=True)
    return (rng.dirichlet(np.ones(len(reps))) / sizes)[of]


@pytest.mark.parametrize("model", [
    BitsMixture(0.5, 4), CurieWeiss(0.3, 0.2, 5), CurieWeiss(0.3, 0.0, 6),
    IsingGrid(2, 2, 0.4, 0.0), IsingGrid(2, 3, 0.4, 0.1), IsingGrid(1, 6, 0.3, 0.1, periodic=True),
], ids=repr)
def test_quotient_w1_matches_the_full_cube_and_the_coupling_lp(model):
    """The dual LP over one potential per orbit gives the W1 of the full
    cube's to 1e-12 and the coupling LP's to 1e-9, on stationary laws
    against the target and on random invariant laws."""
    sym, target = model.symmetries(), exact_target(model)
    rng = np.random.default_rng(model.dim)
    pairs = [(stationary(kernel), target)
             for _, kernel in _kernels(model, 0.5, [("dups", "glauber"), ("dula", "stein"),
                                                    ("dmaps", "gibbs")])]
    pairs += [(_invariant_law(model, rng), _invariant_law(model, rng)) for _ in range(3)]
    pairs.append((pairs[-1][0], target))
    for p, q in pairs:
        w = wasserstein_hamming(p, q, sym)
        assert w == pytest.approx(wasserstein_hamming(p, q), rel=0, abs=1e-12)
        if model.dim <= 5 or p is pairs[-1][0]:
            assert w == pytest.approx(wasserstein_hamming_lp(p, q), rel=0, abs=1e-9)


@pytest.mark.parametrize("dim", range(1, 13))
def test_path_quotient_w1_matches_the_lp_on_the_same_quotient(dim, lp_calls):
    """Where the orbits join as a path (the +1 counts, folded or not by the
    global flip), W1 takes the closed form with no LP, and equals the dual
    LP on the same quotient to 1e-13 relative."""
    rng = np.random.default_rng(dim)
    for model in (IndependentBits(0.4, dim), BitsMixture(0.5, dim)):
        sym = model.symmetries()
        orbits = cube_orbits(dim, sym)
        assert orbits.path
        for _ in range(3):
            p, q = _invariant_law(model, rng), _invariant_law(model, rng)
            w = analysis._transport_values(p[None, :], q[None, :], symmetries=sym)[0][0]
            assert not lp_calls
            if len(orbits.reps) == 1:
                assert w == 0.0
                continue
            lp = analysis._dual_lp_values(orbits.lump(p - q)[None, :],
                                          analysis._quotient_lp(dim, orbits.generators, 1))
            lp_calls.clear()
            assert w == pytest.approx(lp[0], rel=1e-13, abs=0), (model, w, lp[0])


def test_quotient_w1_keeps_the_zero_and_product_paths(monkeypatch):
    """A pair with no supply is 0, also where roundoff supplies cancel within
    an orbit, and a pair of product laws takes the closed form; none reaches
    an LP."""
    monkeypatch.setattr(analysis, "_dual_lp_values", None)
    mixture = BitsMixture(0.5, 5)
    p = exact_target(mixture)
    q = p.copy()
    q[[1, 2]] += [2e-15, -2e-15]
    assert wasserstein_hamming(p, p, mixture.symmetries()) == 0.0
    assert wasserstein_hamming(p, q, mixture.symmetries()) == 0.0
    model = IndependentBits(0.3, 6)
    sym, target = model.symmetries(), exact_target(model)
    pi = stationary(dula_matrix(model, ScoreField(model, "gibbs"), 0.4))
    assert wasserstein_hamming(pi, target, sym) == wasserstein_hamming(pi, target) > 0.0


def test_asymmetric_kernels_and_laws_are_refused(solves):
    model = CurieWeiss(0.3, 0.4, 5)
    sym, target = model.symmetries(), exact_target(model)
    flip = ((0, 1, 2, 3, 4), 0b11111)
    kernel = dups_matrix(model, ScoreField(model, "glauber"), 0.6)
    with pytest.raises(NumericalError, match="breaks the declared symmetry") as err:
        replace(kernel, symmetries=sym + (flip,))
    assert err.value.residual > 1e-13
    # the target is not flip invariant at b != 0; averaging it over the
    # flip moves its W1 to the kernel's law far beyond 1e-13
    pi = stationary(kernel)
    with pytest.raises(NumericalError, match="break the declared symmetries") as err:
        wasserstein_hamming(pi, target, sym + (flip,))
    assert err.value.residual > 1e-13
    # a law off its orbit average by 1e-12 could move W1 by up to d/2 * 2e-12
    tilted = pi.copy()
    tilted[[1, 2]] += [1e-12, -1e-12]
    with pytest.raises(NumericalError, match="break the declared symmetries"):
        wasserstein_hamming(tilted, target, sym)
    assert solves == []
    # roundoff-sized asymmetry is not refused
    tilted = pi.copy()
    tilted[[1, 2]] += [1e-17, -1e-17]
    assert wasserstein_hamming(tilted, target, sym) == pytest.approx(
        wasserstein_hamming(pi, target), rel=0, abs=1e-12)


def test_laws_invariant_bit_for_bit_pass_the_orbit_guard_at_d_12():
    """Two exchangeable targets at d = 12, each constant on its +1-count
    classes of up to 924 states, whose float orbit averages move them by
    over 1e-13 / d: their W1 is the closed form over the cumulative class
    masses. The same law moved 1e-13 between two states of one class is
    still refused."""
    p, q = exact_target(BitsMixture(0.5, 12)), exact_target(BitsMixture(0.4, 12))
    sym = BitsMixture(0.5, 12).symmetries()
    counts = np.bitwise_count(np.arange(1 << 12))
    cdf = [np.cumsum(np.bincount(counts, weights=law)) for law in (p, q)]
    assert wasserstein_hamming(p, q, sym) == pytest.approx(
        np.abs(cdf[0] - cdf[1]).sum(), rel=1e-12)
    tilted = q.copy()
    tilted[[1, 2]] += [1e-13, -1e-13]
    with pytest.raises(NumericalError, match="break the declared symmetries"):
        wasserstein_hamming(p, tilted, sym)


@pytest.mark.parametrize("model", [IndependentBits(0.5, 3), BitsMixture(0.5, 4),
                                   CurieWeiss(0.3, 0.1, 4), IsingGrid(2, 2, 0.4, 0.1)], ids=repr)
def test_two_stage_kernels_at_a_tiny_step_are_reducible_on_both_paths(model):
    # exp(-2/eta) = e^-1000 underflows, so no state leaves its own orbit
    configs = [("prox", None)] + [(s, k) for s in ("dups", "dmaps") for k in SCORE_KINDS]
    for config, kernel in _kernels(model, 0.002, configs):
        for either in (replace(kernel, symmetries=()), kernel):
            with pytest.raises(NumericalError, match="reducible in double precision"):
                stationary(either)


def test_a_pair_off_the_product_form_by_8e_9_is_solved():
    """q is a product law at d = 3 and p = q + 1e-9 f, with f = +1 where
    bits 0 and 1 agree and -1 elsewhere. The coordinate marginals are
    equal, so the product closed form would read 0, but p lies 8e-9 in L1
    from the product of its marginals and is solved: flipping bit 0 moves
    each -1e-9 onto a +1e-9, and the agreement of bits 0 and 1 is a
    potential that proves W1 = 4e-9."""
    ks = np.arange(8)
    q = np.where(all_signs(3) > 0, 0.6, 0.4).prod(axis=1)
    p = q + 1e-9 * np.where((ks ^ ks >> 1) & 1, -1.0, 1.0)
    assert wasserstein_hamming(p, q) == pytest.approx(4e-9, rel=0, abs=1e-12)
    assert wasserstein_hamming_lp(p, q) == pytest.approx(4e-9, rel=0, abs=1e-12)


def test_transport_lp_takes_a_roundoff_supply_at_the_pinned_state():
    """The stationary law of this reversible kernel is the target up to a
    supply of 1.3e-15 at state 0 alone, the pinned potential: the LP's dual
    value is 0, and the flow check measures its gap against the supply
    scale instead of dividing by it."""
    model = CurieWeiss(0.3, 0.1, 8)
    kernel = dmaps_matrix(model, ScoreField(model, "glauber"), 0.3)
    pi, target = stationary(kernel), exact_target(model)
    b = pi - target
    assert np.flatnonzero(np.abs(b) > analysis._SUPPLY_TOL).tolist() == [0]
    assert wasserstein_hamming(pi, target) == 0.0
    lone = np.zeros((1, 16))
    lone[0, 0] = 2e-15
    assert analysis._dual_lp_values(lone, analysis._quotient_lp(4, (), 1)).tolist() == [0.0]


# ---------------------------------------------------------------------------
# detailed balance and contraction


def test_detailed_balance_residuals():
    from cubelab.kernels import dmala_matrix

    model = IsingGrid(2, 2, 0.4, 0.1)
    p = exact_target(model)
    assert detailed_balance_residual(gibbs_matrix(model, 0.5), p) <= 1e-12
    assert detailed_balance_residual(
        dmaps_matrix(model, ScoreField(model, "glauber"), 0.5), p) <= 1e-12
    assert detailed_balance_residual(
        dmala_matrix(model, ScoreField(model, "gibbs"), 0.5), p) <= 1e-12
    lopsided = np.array([[0.2, 0.8], [0.5, 0.5]])
    assert detailed_balance_residual(KernelMatrix(lopsided, 1.0, "gibbs"),
                                     np.array([0.5, 0.5])) > 1e-3


@pytest.mark.parametrize("model", [
    *(cls(dim) for dim in range(3, 9) for cls in (
        lambda d: IndependentBits(0.3, d), lambda d: BitsMixture(0.5, d),
        lambda d: CurieWeiss(0.2, 0.1, d))),
    IsingGrid(2, 2, 0.4, 0.1), IsingGrid(2, 3, 0.4, 0.0), IsingGrid(2, 4, 0.3, 0.1),
    IsingGrid(1, 4, 0.4, 0.1, periodic=True),
], ids=repr)
def test_detailed_balance_on_orbit_representatives_is_the_full_pass(model):
    """Against the target and the stationary law, both invariant bit for
    bit, the residual read on the orbit representatives' rows and columns
    equals the one over every pair, on each sampler and score: up to the
    roundoff by which a kernel commutes with its symmetries, and never
    above it (it is a max over fewer pairs). A law moved off its orbits,
    and a kernel without symmetries, take the full pass: max |flux -
    flux^T| over every pair, bit for bit."""
    orbits = cube_orbits(model.dim, model.symmetries())
    target = exact_target(model)
    for sampler in kernels.SAMPLER_IDS:
        for kind in ["glauber"] if sampler in kernels.SCORE_FREE else SCORE_KINDS:
            kernel = kernel_matrix(model, sampler, ScoreField(model, kind), 0.4)
            plain = replace(kernel, symmetries=())
            for p in (target, stationary(kernel)):
                assert all(np.array_equal(p[g], p) for g in orbits.images)
                full = detailed_balance_residual(plain, p)
                assert full - 1e-16 <= detailed_balance_residual(kernel, p) <= full, (sampler, kind)
    tilted = target.copy()
    tilted[[1, 2]] += [1e-9, -1e-9]
    for k, p in ((plain, target), (kernel, tilted)):
        flux = p[:, None] * k.probs
        assert detailed_balance_residual(k, p) == float(np.abs(flux - flux.T).max())


def _assert_flip_path_bound(t, kappa):
    """Every pair of states (a, c) has exact W1 at most kappa * ham(a, c)
    + 1e-9: the triangle inequality along a flip path, checked on all pairs."""
    a, c = np.triu_indices(t.shape[0], 1)
    ell = np.bitwise_count(a ^ c)
    w = analysis._transport_values(t[a], t[c])[0]
    bad = np.flatnonzero(w > kappa * ell + 1e-9)
    assert bad.size == 0, (f"pair ({a[bad[0]]}, {c[bad[0]]}): W = {w[bad[0]]:.6e} "
                           f"> kappa * ell = {kappa * ell[bad[0]]:.6e}")


def test_contraction_certificate_flip_path_bound():
    model = BitsMixture(0.5, 4)
    t = dups_matrix(model, ScoreField(model, "stein"), 0.5)
    cert = contraction_certificate(t)
    _assert_flip_path_bound(t.probs, cert.kappa)
    # the check has teeth: a kappa below the witness's W1 fails it
    with pytest.raises(AssertionError, match=r"> kappa \* ell"):
        _assert_flip_path_bound(t.probs, 0.9 * cert.kappa)
    assert cert.pair_values.max() == cert.kappa
    a, b = cert.witness
    assert hamming(state_of(a, 4), state_of(b, 4)) == 1


@pytest.fixture
def solves(monkeypatch):
    """The row count of every `_transport_values` call."""
    rows = []
    solve = analysis._transport_values
    monkeypatch.setattr(analysis, "_transport_values",
                        lambda p, q, *args, **kw: rows.append(p.shape[0]) or solve(p, q, *args, **kw))
    return rows


@pytest.fixture
def lp_calls(monkeypatch):
    """The pair count of every `_dual_lp_values` call."""
    calls = []
    solve = analysis._dual_lp_values
    monkeypatch.setattr(analysis, "_dual_lp_values",
                        lambda b, lp: calls.append(len(b)) or solve(b, lp))
    return calls


@pytest.fixture
def symmetry_checks(monkeypatch):
    """The owner and the part names of every `kernels._checked_images` call."""
    calls = []
    check = kernels._checked_images
    monkeypatch.setattr(kernels, "_checked_images",
                        lambda owner, dim, symmetries, parts: calls.append(
                            (owner, tuple(name for name, _, _ in parts)))
                        or check(owner, dim, symmetries, parts))
    return calls


@pytest.mark.parametrize("model", [CurieWeiss(0.01, 0.05, 5), IsingGrid(2, 3, 0.02, 0.05)],
                         ids=repr)
def test_each_kernel_is_checked_against_its_symmetries_once(model, symmetry_checks, monkeypatch):
    """A kernel is checked on its symmetries when it is built, and neither
    its stationary law, that law's W1 nor its certificate checks it again:
    one transition-probability check per kernel in `analyze_row` with kappa
    and in `run_certificates`. The dmaps builder also checks the log
    weights and the tilt table that it sums over."""
    from cubelab.cli import analyze_row

    built = []
    build = kernels.kernel_matrix
    monkeypatch.setattr(kernels, "kernel_matrix", lambda *a: built.append(a[1]) or build(*a))
    probs = ("kernel", ("transition probabilities",))
    inputs = (repr(model), ("log weights", "tilt table"))
    for sampler in ("gibbs", "dups", "dmaps"):
        symmetry_checks.clear()
        row, _ = analyze_row(model, sampler, "stein", 0.6, with_kappa=True)
        assert row["kappa"] != "", sampler
        assert symmetry_checks == ([inputs, probs] if sampler == "dmaps" else [probs]), sampler
    # the dmaps row reads its acceptance mass off the flux, with no kernel
    for kind, samplers, dmaps_rows in (("glauber", ["dula", "dups", "gibbs"], 0),
                                       ("stein", ["dula", "dups"], 1)):
        built.clear()
        symmetry_checks.clear()
        run_certificates(model, kind, 0.6)
        assert sorted(built) == samplers, kind
        assert sorted(symmetry_checks) == [inputs] * dmaps_rows + [probs] * len(samplers), kind


def test_contraction_certificate_dimension_cap(solves):
    """Above the kappa cap the certificate refuses with the reason that
    `dimension_skip` gives `check`, before any solve."""
    model = IsingGrid(3, 3, 0.4, 0.1)
    reason = analysis.dimension_skip("kappa", 9)
    assert reason == "dimension 9 above cap 8"
    with pytest.raises(CapabilityError, match=f"^contraction certificate: {reason}$"):
        contraction_certificate(gibbs_matrix(model, 0.5))
    assert solves == []


def test_gibbs_contraction_matches_bound_on_bits():
    model = IndependentBits(0.5, 4)
    for eta in (0.4, 0.8):
        cert = contraction_certificate(gibbs_matrix(model, eta))
        bound = analysis.gibbs_contraction_bound(4, eta, 0.0)
        assert cert.kappa <= bound + 1e-12
        assert cert.kappa == pytest.approx(bound, abs=1e-12)  # tight here


@pytest.mark.parametrize("eta", [0.2, 0.4, 0.8])
def test_dups_kappa_closed_form_on_bits(eta):
    # the constant-score counterexample quoted by acceptance criterion 5
    beta = 0.5
    model = IndependentBits(beta, 6)
    closed = product_laws.kappa("dups", "glauber", beta, eta)
    for kind in ("stein", "glauber"):
        cert = contraction_certificate(dups_matrix(model, ScoreField(model, kind), eta))
        assert cert.kappa == pytest.approx(closed, abs=1e-12)
        # every adjacent pair ties in real arithmetic: the witness is the first
        assert cert.kappa == cert.pair_values.max()
        assert cert.witness == tuple(cert.pairs[0])


@pytest.mark.parametrize("dim", [3, 4, 5, 6])
def test_dense_path_matches_the_product_law(dim):
    """On IndependentBits the dula and dups kernels are d-fold products of
    one 2x2 kernel, whose stationary W1 to the target, contraction
    coefficient and second eigenvalue modulus `product_laws` gives in closed
    form. The dense kernels, the stationary solve, the transport solver, the
    orbit-reduced certificate and the eigensolver agree with it for every
    score, at eta >= 0.2; the worst gaps measured were 1.7e-14 relative
    (kappa), 1.8e-15 relative (lambda2) and 5.1e-15 absolute (W1)."""
    for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
        model = IndependentBits(beta, dim)
        target = exact_target(model)
        for eta in (0.2, 0.4, 0.8, 1.6):
            for sampler in product_laws.SAMPLERS:
                for kind in SCORE_KINDS:
                    tag = (beta, eta, sampler, kind)
                    kernel = kernel_matrix(model, sampler, ScoreField(model, kind), eta)
                    pi = stationary(replace(kernel, symmetries=()))
                    kappa = product_laws.kappa(sampler, kind, beta, eta)
                    cert = contraction_certificate(kernel)
                    assert cert.kappa == pytest.approx(kappa, rel=1e-12, abs=0), tag
                    assert (spectral_summary(kernel, pi).lambda2
                            == pytest.approx(kappa, rel=1e-12, abs=0)), tag
                    w1 = product_laws.stationary_w1(sampler, kind, beta, eta, dim)
                    assert abs(wasserstein_hamming(pi, target) - w1) <= 1e-13, tag


@pytest.mark.parametrize("dim", range(1, 13))
def test_constant_scores_read_exact_zero_bounds(dim):
    """On IndependentBits score component i depends on x_i alone for every
    kind, so the smooth beta2, and with it the static dups error bound and
    the dmaps rejection bound, are exactly 0, not roundoff."""
    for beta in (-1.3, 0.0, 0.3, 0.7, 2.0):
        model = IndependentBits(beta, dim)
        for kind in SCORE_KINDS:
            assert smooth_beta_constants(ScoreField(model, kind)).beta2 == 0.0, (beta, kind)
        for kind in ("glauber", "gibbs"):
            for eta in (0.2, 0.8):
                entries = bounds_report(model, kind, eta).entries
                assert entries["err_dups_static"].value == 0.0, (beta, kind, eta)
                assert entries["dmaps_rejection"].value == 0.0, (beta, kind, eta)


# every family, with a square grid, periodic rings and zero-field variants
SYMMETRIC_MODELS = [
    IndependentBits(0.5, 4), IndependentBits(0.0, 4), BitsMixture(0.5, 5),
    CurieWeiss(0.2, 0.3, 4), CurieWeiss(0.3, 0.0, 5),
    IsingGrid(2, 2, 0.4, 0.1), IsingGrid(2, 2, 0.4, 0.0),
    IsingGrid(1, 3, 0.4, 0.1, periodic=True), IsingGrid(1, 4, 0.3, 0.0, periodic=True),
]
KERNEL_CONFIGS = [("gibbs", None), ("prox", None)] + [
    (sampler, kind) for sampler in ("dula", "dmala", "dups", "dmaps") for kind in SCORE_KINDS]


def _isometry_deviation(t, sigma, mask):
    """max |t[g x, g y] - t[x, y]|, with g built state by state."""
    d = len(sigma)
    g = [sum(((k >> i) & 1) << j for i, j in enumerate(sigma)) ^ mask for k in range(1 << d)]
    return np.abs(t[np.ix_(g, g)] - t).max()


@pytest.mark.parametrize("model", SYMMETRIC_MODELS, ids=repr)
def test_orbit_reduced_certificate_matches_every_edge_solved(model):
    for sampler, kind in KERNEL_CONFIGS:
        kernel = kernel_matrix(model, sampler, kind and ScoreField(model, kind), 0.6)
        for sigma, mask in model.symmetries():
            assert _isometry_deviation(kernel.probs, sigma, mask) <= 1e-13, (sampler, kind)
        full = contraction_certificate(replace(kernel, symmetries=()))
        reduced = contraction_certificate(kernel)
        tag = (sampler, kind)
        assert np.array_equal(full.solved_on, np.arange(len(full.pairs))), tag
        assert np.array_equal(reduced.pairs, full.pairs)
        assert reduced.witness == full.witness, tag
        assert abs(reduced.kappa - full.kappa) <= 1e-12, tag
        assert np.abs(reduced.pair_values - full.pair_values).max() <= 1e-12, tag
        # every value was solved on the lowest-index pair of its orbit
        assert (reduced.solved_on <= np.arange(len(full.pairs))).all()
        assert np.array_equal(reduced.solved_on[reduced.solved_on], reduced.solved_on)


def test_periodic_square_grid_symmetries_hold_on_its_kernels():
    """Above the certificate cap, but its reflections, transpose, cyclic
    shifts and global flip are declared all the same."""
    model = IsingGrid(3, 3, 0.3, 0.0, periodic=True)
    field = ScoreField(model, "stein")
    for sampler in ("gibbs", "prox", "dups"):
        kernel = kernel_matrix(model, sampler, field, 0.6)
        for sigma, mask in model.symmetries():
            assert _isometry_deviation(kernel.probs, sigma, mask) <= 1e-13, sampler


@pytest.mark.parametrize("model, orbits", [
    (IndependentBits(0.5, 6), 6), (CurieWeiss(0.2, 0.0, 5), 3), (IsingGrid(2, 3, 0.4, 0.1), 52),
], ids=repr)
def test_edge_orbit_counts(model, orbits, solves):
    kernel = dups_matrix(model, ScoreField(model, "stein"), 0.8)
    cert = contraction_certificate(kernel)
    assert np.unique(cert.solved_on).size == orbits
    assert solves == [orbits]
    full = contraction_certificate(replace(kernel, symmetries=()))
    assert full.witness == cert.witness
    assert np.abs(full.pair_values - cert.pair_values).max() <= 1e-12


@pytest.mark.parametrize("model, generator", [
    (IsingGrid(2, 3, 0.4, 0.1), ((1, 0, 2, 3, 4, 5), 0)),  # a transposition
    (CurieWeiss(0.2, 0.3, 4), ((0, 1, 2, 3), 0b1111)),  # the global flip at b != 0
    (IsingGrid(2, 2, 0.4, 0.1), ((0, 1, 2, 3), 0b1111)),  # the global flip at h != 0
], ids=repr)
def test_broken_symmetry_raises_before_any_solve(model, generator, solves):
    """A kernel declaring a generator it does not commute with is refused
    when it is built, so no certificate or stationary law is solved on it."""
    kernel = dups_matrix(model, ScoreField(model, "glauber"), 0.6)
    with pytest.raises(NumericalError, match="breaks the declared symmetry .* its transition "
                                             "probabilities") as err:
        replace(kernel, symmetries=model.symmetries() + (generator,))
    assert err.value.residual > 1e-13
    assert solves == []


def test_malformed_symmetry_is_rejected():
    model = IndependentBits(0.5, 3)
    kernel = gibbs_matrix(model, 0.5)
    for generator in [((0, 0, 1), 0), ((0, 1), 0), ((0, 1, 2), 8), ((0, 1, 2), -1)]:
        with pytest.raises(ParameterError):
            replace(kernel, symmetries=(generator,))


@pytest.mark.parametrize("model", [
    BitsMixture(0.5, 5), CurieWeiss(0.2, 0.3, 5), IsingGrid(2, 2, 0.4, 0.1)], ids=repr)
def test_orbit_reduced_kappa_bounds_every_pair(model):
    """The exhaustive flip-path check holds against the copied edge values."""
    for sampler in ("dups", "dmaps"):
        kernel = kernel_matrix(model, sampler, ScoreField(model, "glauber"), 0.6)
        cert = contraction_certificate(kernel)
        _assert_flip_path_bound(kernel.probs, cert.kappa)
        assert np.unique(cert.solved_on).size < len(cert.pairs)


def test_run_certificates_solves_orbit_representatives_only(solves, monkeypatch):
    model = BitsMixture(0.1, 5)
    kappas = []
    certify = analysis.contraction_certificate
    monkeypatch.setattr(analysis, "contraction_certificate",
                        lambda k, **kw: kappas.append(k) or certify(k, **kw))
    lps = []
    solve = analysis._dual_lp_values
    monkeypatch.setattr(analysis, "_dual_lp_values",
                        lambda b, lp: lps.append(b.shape) or solve(b, lp))
    paths = []
    closed_form = analysis._path_values
    monkeypatch.setattr(analysis, "_path_values",
                        lambda b: paths.append((b, closed_form(b))) or paths[-1][1])
    results = run_certificates(model, "glauber", 0.8)
    assert kappas and all(k.symmetries == model.symmetries() for k in kappas)
    # each sampler's kappa is computed once, whatever number of bounds it meets
    samplers = [k.sampler for k in kappas]
    assert sorted(samplers) == sorted({r.sampler for r in results
                                       if r.observed is not None and "contraction" in r.certificate})
    # three edge orbits at d = 5 (the number of +1 among the other four
    # coordinates, up to the global flip), and one row per stationary W1
    stationary_rows = sum(r.observed is not None and "stationary" in r.certificate
                          for r in results)
    assert sorted(solves) == [1] * stationary_rows + [3] * len(kappas)
    # each stationary W1 is one row on the three state orbits (the +1 count
    # up to the global flip), not on the 32 states; they join as a path, so
    # it takes the closed form and no LP, and every LP is a certificate's,
    # on the cube
    assert stationary_rows and [b.shape for b, _ in paths] == [(1, 3)] * stationary_rows
    assert all(shape[1] == 32 for shape in lps) and len(lps) <= len(kappas)
    lp = analysis._quotient_lp(5, model.symmetries(), 1)
    for b, value in paths:
        assert value == pytest.approx(solve(b, lp), rel=1e-13, abs=0)
    assert all(math.isfinite(r.observed) for r in results if r.observed is not None)


def _random_configuration(rng):
    """One of the four families at d 3-6 with random parameters, a score
    and a step size drawn log-uniformly in [0.1, 2]."""
    d = int(rng.integers(3, 7))
    family = int(rng.integers(4))
    if family == 0:
        model = IndependentBits(float(rng.uniform(-1.0, 1.0)), d)
    elif family == 1:
        model = BitsMixture(float(rng.uniform(0.0, 1.0)), d)
    elif family == 2:
        model = CurieWeiss(float(rng.uniform(0.0, 0.5)), float(rng.uniform(-0.5, 0.5)), d)
    else:
        rows, cols = {3: (1, 3), 4: (2, 2), 5: (1, 5), 6: (2, 3)}[d]
        model = IsingGrid(rows, cols, float(rng.uniform(-0.6, 0.6)),
                          float(rng.uniform(-0.3, 0.3)), periodic=cols >= 3 and rows == 1)
    kind = SCORE_KINDS[int(rng.integers(3))]
    return model, kind, float(np.exp(rng.uniform(math.log(0.1), math.log(2.0))))


@pytest.mark.parametrize("seed", range(24))
def test_coupling_bounds_bracket_the_exact_certificate(seed):
    """Every coupling bound lies above the exact W1 of its edge, and the
    certificate that skips the batches they decide, tightened by the
    sequential couplings of the rows, gives kappa and the witness of the
    full solve, as the same floats. A bracketed pair reports a bound that
    lies between its exact W1 and kappa."""
    model, kind, eta = _random_configuration(np.random.default_rng([seed, 16]))
    for sampler in ("gibbs", "prox", "dmala", "dups", "dmaps"):
        if sampler == "gibbs" and math.exp(-2.0 / eta) > 1.0 / model.dim:
            continue  # a step gibbs refuses
        tag = (model, sampler, kind, eta)
        kernel = kernel_matrix(model, sampler, ScoreField(model, kind), eta)
        upper = analysis._coupling_upper_bounds(model, kernel)
        exact = contraction_certificate(replace(kernel, symmetries=()))
        assert not exact.bracketed.any()
        assert (upper >= exact.pair_values - 1e-12).all(), tag
        full = contraction_certificate(kernel)
        cert = analysis._sampler_certificate(model, kernel)
        assert cert.kappa == full.kappa and cert.witness == full.witness, tag
        # a solved pair reports its exact value, a bracketed one a bound on it
        live = ~cert.bracketed
        assert np.array_equal(cert.pair_values[live], full.pair_values[live]), tag
        bracketed = cert.pair_values[cert.bracketed]
        assert (bracketed >= exact.pair_values[cert.bracketed] - 1e-12).all(), tag
        assert (bracketed < cert.kappa).all(), tag
        if model.dim <= 5:
            a, b = cert.witness
            assert cert.kappa == pytest.approx(
                wasserstein_hamming_lp(kernel.probs[a], kernel.probs[b]), abs=1e-9), tag
        # against the path that tightens every live batch by both orders at
        # once: the same skips, solved floats, kappa and witness; a bracketed
        # pair's bound may only be higher
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_sequential_coupling_costs", _both_orders_at_once)
            both = analysis._sampler_certificate(model, kernel)
        assert np.array_equal(cert.bracketed, both.bracketed), tag
        assert cert.kappa == both.kappa and cert.witness == both.witness, tag
        assert np.array_equal(cert.pair_values[live], both.pair_values[live]), tag
        assert (cert.pair_values[cert.bracketed] >= both.pair_values[cert.bracketed]).all(), tag


# the function itself, for the stand-in that tests put in its place
_sequential_coupling_costs = analysis._sequential_coupling_costs


def _both_orders(p, q):
    """The costs of the sequential couplings in order 0 and in order 1, as
    rows [0] and [1]."""
    return np.stack([_sequential_coupling_costs(p, q, order) for order in (0, 1)])


def _both_orders_at_once(p, q, order):
    """The smaller cost of both sequential couplings, whichever order is asked."""
    return _both_orders(p, q).min(axis=0)


@pytest.mark.parametrize("sampler", ["gibbs", "prox", "dula"])
def test_sampler_certificates_bracket_or_need_no_lp(sampler, lp_calls):
    """dula rows are product laws, in closed form without an LP; gibbs and
    prox have only the diameter as a coupling bound, and the sequential
    couplings of their rows bracket orbits that the full solve agrees with."""
    model = IsingGrid(2, 3, 0.4, 0.1)
    kernel = kernel_matrix(model, sampler, ScoreField(model, "glauber"), 0.6)
    cert = analysis._sampler_certificate(model, kernel)
    if sampler == "dula":
        assert not lp_calls and not cert.bracketed.any()
        return
    assert cert.bracketed.any()
    full = contraction_certificate(kernel)
    assert cert.kappa == full.kappa and cert.witness == full.witness
    live = ~cert.bracketed
    assert np.array_equal(cert.pair_values[live], full.pair_values[live])
    assert (cert.pair_values[~live] >= full.pair_values[~live] - 1e-12).all()


@pytest.mark.parametrize("d", range(1, 5))
def test_sequential_couplings_bound_the_coupling_lp(d):
    """Both orders of the sequential coupling cost at least the coupling
    LP's W1 on random laws, with atoms and zero entries among them, and
    exactly it at d = 1, where each is the maximal coupling."""
    rng = np.random.default_rng([d, 30])
    laws = rng.dirichlet(np.full(1 << d, 0.3), size=(40, 2))
    laws[::4, 0, : 1 << (d - 1)] = 0.0
    laws /= laws.sum(axis=2, keepdims=True)
    costs = _both_orders(laws[:, 0], laws[:, 1])
    assert costs.shape == (2, 40)
    w1 = np.array([wasserstein_hamming_lp(p, q) for p, q in laws])
    assert (costs >= w1 - 1e-12).all()
    if d == 1:
        np.testing.assert_allclose(costs, np.broadcast_to(w1, costs.shape), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_sequential_couplings_of_product_laws_are_the_closed_form(d):
    """On product laws the conditionals are the marginals, so both orders
    cost sum_j |P_j - Q_j|."""
    rng = np.random.default_rng([d, 31])
    plus = all_signs(d) > 0
    marginals = rng.random((2, 8, d))
    laws = np.where(plus, marginals[:, :, None, :], 1.0 - marginals[:, :, None, :]).prod(axis=3)
    costs = _both_orders(laws[0], laws[1])
    closed = np.abs(marginals[0] - marginals[1]).sum(axis=1)
    np.testing.assert_allclose(costs, np.broadcast_to(closed, costs.shape), rtol=0, atol=1e-14)


def _hand_reversal(d):
    """State k with its bits in the opposite order, bit by bit."""
    ks = np.arange(1 << d)
    return sum(((ks >> j) & 1) << (d - 1 - j) for j in range(d))


@pytest.mark.parametrize("d", range(1, 13))
def test_the_coordinate_reversal_is_an_isometry_image(d):
    assert np.array_equal(isometry_images(d, range(d - 1, -1, -1), 0), _hand_reversal(d))


# the kernels that the benchmark's certify pass certifies, at its mid parameters
CERTIFY_KERNELS = [
    *((IndependentBits(0.5, 6), s, k, eta) for s in ("dula", "dmala", "dups", "dmaps")
      for k in SCORE_KINDS for eta in (0.4, 0.8)),
    *((model, s, "glauber", 0.8) for model in (BitsMixture(0.1, 5), CurieWeiss(0.02, 0.0, 5))
      for s in ("dula", "dmala", "dups", "dmaps")),
    (IsingGrid(2, 3, 0.4, 0.1), "dups", "stein", 0.8),
    (IsingGrid(2, 3, 0.4, 0.1), "dmaps", "glauber", 0.8),
]


def _certify_rows():
    for model, sampler, kind, eta in CERTIFY_KERNELS:
        yield kernel_matrix(model, sampler, ScoreField(model, kind), eta).probs


def test_sequential_coupling_orders_read_the_hand_built_reversal():
    """Order [1] of the sequential coupling is order [0] of the laws with
    their coordinates reversed by the hand-built map, bit for bit, on the
    adjacent rows of every certify kernel. (Order [0] of the reversed laws
    is order [1] only to roundoff: the gathered laws are laid out in
    column-major order, and numpy's sums then round differently.)"""
    for probs in _certify_rows():
        d = probs.shape[0].bit_length() - 1
        pairs, rev = adjacent_pairs(d), _hand_reversal(d)
        p, q = probs[pairs[:, 0]], probs[pairs[:, 1]]
        costs = _both_orders(p, q)
        flipped = _both_orders(p[:, rev], q[:, rev])
        assert np.array_equal(costs[1], flipped[0])
        np.testing.assert_allclose(costs[0], flipped[1], rtol=0, atol=1e-14)


def test_product_residuals_of_the_certify_rows_are_the_concatenated_ones():
    """`_product_residual` on every row of the certify kernels, product laws
    (dula, dups on `bits`) and others alike, equals the residual against
    the product law summed by concatenation, bit for bit."""
    seen = 0
    for probs in _certify_rows():
        d = probs.shape[0].bit_length() - 1
        marginals = probs @ (all_signs(d) > 0).astype(np.float64)
        lg = logit(marginals)
        flip, stay = log_expit(lg), log_expit(-lg)
        law = np.zeros((len(probs), 1))
        for i in range(d):
            law = np.concatenate([law + stay[:, i:i + 1], law + flip[:, i:i + 1]], axis=1)
        residual = analysis._product_residual(probs, marginals)
        assert np.array_equal(residual, np.abs(probs - np.exp(law)).sum(axis=1))
        seen += (residual <= analysis._PRODUCT_TOL).all()
    # every dula kernel, every dups kernel on `bits` and the glauber and stein
    # dmaps kernels there are products on every row; the other 16 are not
    assert seen == 18


def test_product_law_w1_is_the_transport_value_of_each_dula_edge():
    """The closed-form product-law W1 that the dups bound sums is, on every
    dula edge, the W1 the certificate finds between the two dula rows."""
    from cubelab.kernels import _stage_logits

    model, eta = IsingGrid(2, 3, 0.4, 0.1), 0.6
    field = ScoreField(model, "gibbs")
    w1 = analysis._adjacent_product_w1(expit(_stage_logits(field, eta, 1.0)))
    cert = contraction_certificate(dula_matrix(model, field, eta))
    flipped = np.log2(cert.pairs[:, 1] - cert.pairs[:, 0]).astype(int)
    np.testing.assert_allclose(w1[cert.pairs[:, 0], flipped], cert.pair_values, rtol=0,
                               atol=1e-14)


@pytest.mark.parametrize("d", [1, 2, 5])
def test_edges_and_product_w1_match_their_per_coordinate_loops(d):
    """The flip-neighbour index gives the edges in the loop's order and the
    product-law W1 with the loop's floats."""
    ks = np.arange(1 << d)
    pairs = [[k, k | 1 << i] for i in range(d) for k in range(1 << d) if not k >> i & 1]
    assert adjacent_pairs(d).tolist() == pairs
    q = np.random.default_rng(d).random((1 << d, d))
    marginals = np.where(all_signs(d) > 0, 1.0 - q, q)
    loop = np.stack([np.abs(marginals - marginals[ks ^ (1 << i)]).sum(axis=1)
                     for i in range(d)], axis=1)
    assert np.array_equal(analysis._adjacent_product_w1(q), loop)


@pytest.mark.parametrize("d", range(1, 9))
def test_the_trivial_group_quotient_is_the_cube(d):
    """With no generators every orbit is one state or one edge: nothing is
    lumped, each edge is solved on itself, and the quotient LP is the one
    built entry by entry from the cube's edges."""
    orbits = cube_orbits(d, ())
    assert orbits.membership is None and orbits.sizes.tolist() == [1] * (1 << d)
    b = np.ones((2, 1 << d))
    assert orbits.lump(b) is b
    assert np.array_equal(orbits.edge_of, np.arange(d << (d - 1)))
    edges, n = adjacent_pairs(d), 1 << d
    e = len(edges)
    for blocks in (1, 4):
        a, ub, bounds, incidence = analysis._quotient_lp(d, (), blocks)
        assert analysis._quotient_lp(d, (), blocks)[0] is a
        assert np.array_equal(incidence.toarray(), sparse.coo_array(
            (np.tile([1.0, -1.0], e), (np.repeat(np.arange(e), 2), edges.ravel())),
            shape=(e, n)).toarray())
        # block k holds f(u) - f(v) <= 1 at rows 2ek + j and f(v) - f(u) <= 1
        # at rows 2ek + e + j, for edge j = (u, v)
        row = np.arange(2 * e * blocks).reshape(blocks, 2, e)
        col = n * np.arange(blocks)[:, None, None, None] + np.stack([edges, edges[:, ::-1]])
        want = sparse.coo_array((np.tile([1.0, -1.0], 2 * e * blocks),
                                 (np.repeat(row.ravel(), 2), col.ravel())),
                                shape=(2 * e * blocks, n * blocks))
        assert a.shape == want.shape and (a != want.tocsr()).nnz == 0
        assert np.array_equal(ub, np.ones(2 * e * blocks))
        pinned = np.arange(n * blocks) % n == 0
        assert (bounds[pinned] == 0.0).all() and np.isinf(bounds[~pinned]).all()


def test_d8_grid_dups_certificate_solves_at_most_two_lps(lp_calls):
    model = IsingGrid(2, 4, 0.4, 0.1)
    cert = analysis._sampler_certificate(model, dups_matrix(model, ScoreField(model, "glauber"),
                                                            0.4))
    assert len(lp_calls) <= 2
    # one pair per LP call at d = 8: one call per orbit left unbracketed
    assert np.unique(cert.solved_on[~cert.bracketed]).size == len(lp_calls)


def test_upper_bounds_must_cover_every_edge():
    kernel = gibbs_matrix(IndependentBits(0.5, 3), 0.5)
    with pytest.raises(ValueError, match="one per edge"):
        contraction_certificate(kernel, upper=np.ones(11))
    with pytest.raises(ValueError, match="non-finite"):
        contraction_certificate(kernel, upper=np.full(12, np.nan))


def test_upper_bounds_below_the_coordinate_lower_bound_are_refused():
    """An upper bound that the coordinate potential proves wrong would
    bracket edges that hold kappa; it is refused before any solve."""
    model = IsingGrid(2, 2, 0.4, 0.1)
    kernel = dmaps_matrix(model, ScoreField(model, "glauber"), 0.6)
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is below its coordinate lower "
                                         r"bound 0\.88"):
        contraction_certificate(kernel, upper=np.zeros(32))
    exact = contraction_certificate(kernel)
    upper = exact.pair_values.copy()
    upper[5] -= 1.1 * exact.pair_values[5]
    with pytest.raises(ValueError, match=f"edge \\({exact.pairs[5, 0]}, {exact.pairs[5, 1]}\\)"):
        contraction_certificate(kernel, upper=upper)
    # bounds within the margin of the exact values stand
    assert contraction_certificate(kernel, upper=exact.pair_values - 1e-10).kappa == exact.kappa


@pytest.mark.parametrize("model, eta, max_calls", [
    (IsingGrid(2, 3, 0.4, 0.1), 0.8, 3), (IsingGrid(2, 4, 0.4, 0.1), 0.8, 8)], ids=repr)
def test_grid_dmaps_certificate_lp_calls(model, eta, max_calls, lp_calls):
    """Once rejections are common, the sequential couplings of the rows
    bracket all but a few of the dmaps LP batches."""
    cert = analysis._sampler_certificate(
        model, dmaps_matrix(model, ScoreField(model, "glauber"), eta))
    assert len(lp_calls) <= max_calls
    assert np.unique(cert.solved_on[~cert.bracketed]).size <= sum(lp_calls)


# ---------------------------------------------------------------------------
# bounds


def test_bound_formula_values():
    # 4d/(1+e^{2/eta}) at d=6, eta=0.25
    assert analysis.dula_stationary_error_bound(6, 0.25) == pytest.approx(
        24 / (1 + math.exp(8.0)), rel=1e-12)
    assert analysis.gibbs_contraction_bound(5, 0.5, 0.0) == pytest.approx(
        1 - math.exp(-4.0), rel=1e-12)
    assert analysis.dups_contraction_bound(0.5) == pytest.approx(
        1 - 2 * expit(-4.0), rel=1e-12)
    assert analysis.dups_contraction_bound(0.5) == pytest.approx(0.9640, abs=5e-4)
    d, eta, b1, b2 = 4, 0.5, 0.3, 0.05
    s0, s1 = expit(-4.0), expit(-4.0 + b1)
    assert analysis.dmaps_acceptance_lipschitz(d, eta, b1, b2) == pytest.approx(
        6 * b1 + 4 * d**1.5 * math.sqrt(s0 + s1) * b2, rel=1e-12)
    delta = analysis.dmaps_rejection_bound(d, eta, b1, b2)
    assert delta == pytest.approx(
        1 - math.exp(-2 * b2 * d**2 * (s0 + s1)
                     - 4 * b2 * d**2 * math.sqrt(s0**2 + s0 * s1)), rel=1e-12)
    eps = 2 * expit(-4.0)
    assert analysis.dmaps_contraction_bound(eps, d, eta, b1, b2) == pytest.approx(
        1 - eps + delta + d * analysis.dmaps_acceptance_lipschitz(d, eta, b1, b2),
        rel=1e-12)
    # e^{2 beta1} overflows a double past beta1 ~ 355: the bound is inf, not an error
    assert analysis.dula_static_error_bound(5, 400.0) == math.inf


def test_bounds_report_flags_and_vacuity():
    strong = bounds_report(IsingGrid(2, 2, 2.0, 0.0), "glauber", 0.5)
    assert not strong.flags["d_beta2_le_1"]
    assert strong.rates["gibbs"].value > 1.0 and strong.rates["gibbs"].vacuous
    assert not strong.rates["gibbs"].applicable

    weak = bounds_report(IndependentBits(0.3, 6), "glauber", 0.4)
    # constant field: beta2 vanishes up to log-weight cancellation noise
    assert weak.beta2 <= 1e-15
    assert all(weak.flags.values())
    assert weak.rates["gibbs"].applicable
    assert weak.rates["gibbs"].value == pytest.approx(1 - math.exp(-5.0), rel=1e-12)
    # non-vacuous bounds stay at or below one / the diameter
    for entry in weak.rates.values():
        if not entry.vacuous:
            assert entry.value <= 1.0
    for entry in weak.errors.values():
        if not entry.vacuous:
            assert entry.value <= 6
    # `rates` and `errors` hold the `rate_` and `err_` columns, in column
    # order, under the column name less that prefix
    assert list(weak.rates) == ["gibbs", "dula", "dula_small_step", "dups", "dups_small_step"]
    assert list(weak.errors) == ["dula_small_step", "dups_small_step", "dula_static",
                                 "dups_static"]
    for prefix, entries in (("rate_", weak.rates), ("err_", weak.errors)):
        assert all(entry is weak.entries[prefix + key] for key, entry in entries.items())

    # an error is vacuous from the diameter d = 4 on, a rejection mass from one on
    stein = bounds_report(IsingGrid(2, 2, 2.0, 0.0), "stein", 0.5)
    dups, dula = stein.entries["err_dups_small_step"], stein.entries["err_dula_small_step"]
    assert dups.value >= 4 and dups.vacuous
    assert dula.value < 1 and not dula.vacuous
    rejection = stein.entries["dmaps_rejection"]
    assert rejection.value == 1.0 and rejection.vacuous


def test_bounds_report_requires_matching_score():
    rep = bounds_report(IndependentBits(0.3, 4), "glauber", 0.4)
    assert not rep.rates["dula_small_step"].applicable  # needs the gibbs score
    rep2 = bounds_report(IndependentBits(0.3, 4), "gibbs", 0.4)
    assert rep2.rates["dula_small_step"].applicable
    assert not rep2.rates["gibbs"].applicable


# the README's words for each observable of the claim table
_README_OBSERVABLES = {"kappa": "kappa", "stationary_w1": "stationary W1",
                       "rejection": "rejection mass",
                       None: "none (a constant of the dmaps bounds)"}


def test_readme_claim_table_matches_the_claims():
    """The table under "Claims and certificates" in README.md lists every
    claim of `analysis._CLAIMS` in order: its column, its observable, and
    its `check` certificate with sampler and the cap of its observable
    (the largest d that `dimension_skip` keeps), or "reported only"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Claims and certificates\n", 1)[1].split("\n#", 1)[0]
    header, _, *rows = ([cell.strip() for cell in line.strip("|").split("|")]
                        for line in section.splitlines() if line.startswith("|"))
    assert header == ["Column", "Observable", "`check` certificate (sampler, cap)"]
    def cap(observable):
        return next(d for d in range(1, 100) if analysis.dimension_skip(observable, d + 1))

    expected = [[f"`{c.column}`", _README_OBSERVABLES[c.observable],
                 "`{}` ({}, d <= {})".format(*c.certificate, cap(c.observable))
                 if c.certificate else "reported only"] for c in analysis._CLAIMS]
    assert rows == expected


# ---------------------------------------------------------------------------
# adjusted-kernel diagnostics


def test_dmaps_delta_zero_for_constant_exact_score():
    model = IndependentBits(0.5, 4)
    delta = dmaps_empirical_delta(model, ScoreField(model, "stein"), 0.5)
    assert delta == pytest.approx(0.0, abs=1e-14)


def test_dmaps_delta_in_unit_interval_and_below_bound():
    model = IsingGrid(2, 2, 0.05, 0.0)
    field = ScoreField(model, "stein")
    for eta in (0.5, 0.8):
        delta = dmaps_empirical_delta(model, field, eta)
        assert 0.0 <= delta <= 1.0
        rep = bounds_report(model, "stein", eta)
        assert delta <= rep.entries["dmaps_rejection"].value


def test_naive_mh_oracle():
    model = IsingGrid(1, 3, 0.5, 0.1)
    field = ScoreField(model, "glauber")
    oracle = naive_mh_oracle(model, field, 0.5)
    np.testing.assert_allclose(oracle.probs.sum(axis=1), 1.0, atol=1e-12)
    assert tv_distance(stationary(oracle), exact_target(model)) <= 1e-9
    stagewise = dmaps_matrix(model, field, 0.5)
    assert np.abs(oracle.probs - stagewise.probs).max() > 1e-6


def test_naive_mh_oracle_where_two_stage_entries_underflow():
    # at eta = 0.002 every move of the two-stage kernel rounds to probability 0
    model = IndependentBits(0.5, 3)
    oracle = naive_mh_oracle(model, ScoreField(model, "glauber"), 0.002)
    np.testing.assert_array_equal(oracle.probs, np.eye(8))


def test_reference_solvers_above_their_caps():
    with pytest.raises(CapabilityError, match="d <= 6"):
        stationary_direct(gibbs_matrix(IndependentBits(0.5, 7), 0.5))
    uniform = np.full(1 << 7, 1 / (1 << 7))
    with pytest.raises(CapabilityError, match="coupling LP capped at d <= 6"):
        wasserstein_hamming_lp(uniform, uniform)


def test_naive_mh_oracle_cap():
    with pytest.raises(CapabilityError):
        naive_mh_oracle(IsingGrid(2, 4, 0.1, 0.0),
                        ScoreField(IsingGrid(2, 4, 0.1, 0.0), "stein"), 0.5)


# ---------------------------------------------------------------------------
# certificates


def test_every_sampler_exactly_invariant_on_flat_target():
    """The uniform target is invariant for every kernel by symmetry."""
    from cubelab.kernels import dmala_matrix, gibbs_matrix as gm, prox_exact_matrix

    flat = IndependentBits(0.0, 3)
    uniform = exact_target(flat)
    field = ScoreField(flat, "glauber")
    kernels = [gm(flat, 0.6), prox_exact_matrix(flat, 0.6),
               dula_matrix(flat, field, 0.6), dmala_matrix(flat, field, 0.6),
               dups_matrix(flat, field, 0.6), dmaps_matrix(flat, field, 0.6)]
    for kernel in kernels:
        w = wasserstein_hamming(stationary(kernel), uniform)
        assert w <= 1e-10, (kernel.sampler, w)


def test_certificates_pass_on_flat_bits():
    results = run_certificates(IndependentBits(0.1, 4), "glauber", 0.8)
    by_name = {(r.certificate): r for r in results}
    assert by_name["gibbs_contraction"].status == "pass"
    assert by_name["dula_contraction"].status == "pass"
    assert by_name["dups_contraction"].status == "pass"
    assert by_name["dula_contraction_small_step"].status == "skip"
    assert "gibbs score" in by_name["dula_contraction_small_step"].reason


def test_certificates_skip_when_preconditions_fail():
    results = run_certificates(IsingGrid(2, 2, 2.0, 0.0), "glauber", 0.5)
    assert all(r.status == "skip" for r in results if r.certificate != "dmaps_acceptance_mass")
    reasons = {r.certificate: r.reason for r in results}
    assert "precondition unmet" in reasons["gibbs_contraction"]


def test_error_certificates_hold_where_applicable():
    """Stationary-error bounds hold on every small configuration whose flags
    hold (the contraction-rate side has one known violated family, checked
    separately)."""
    configs = [
        (IndependentBits(0.3, 4), ("stein", "gibbs", "glauber")),
        (BitsMixture(0.1, 4), ("gibbs", "glauber")),
        (IsingGrid(2, 2, 0.02, 0.01), ("gibbs", "glauber")),
        (CurieWeiss(0.02, 0.0, 4), ("gibbs", "glauber")),
    ]
    evaluated = 0
    for model, kinds in configs:
        for kind in kinds:
            for eta in (0.25, 0.4):
                for cert in run_certificates(model, kind, eta):
                    if not cert.certificate.endswith("stationary_error"):
                        continue
                    assert cert.status != "fail", cert
                    evaluated += cert.status == "pass"
    assert evaluated >= 8


def test_certificates_report_known_small_step_violation():
    """The small-step two-stage rate is numerically violated for constant
    scores even though its stated preconditions hold; the certificate must
    say so rather than pass."""
    results = run_certificates(IndependentBits(0.5, 4), "glauber", 0.4)
    by_name = {r.certificate: r for r in results}
    small = by_name["dups_contraction_small_step"]
    assert small.status == "fail"
    assert small.observed > small.bound
    # the regular-score rate for the same kernel does hold
    assert by_name["dups_contraction"].status == "pass"


def test_run_certificates_plan_order_and_skip_reasons():
    """The certificate rows, their order and the skip reasons are part of the
    `check` output; every skip rule appears across these two configurations."""
    names = ["gibbs_contraction", "dula_contraction", "dula_contraction_small_step",
             "dups_contraction", "dups_contraction_small_step", "dula_stationary_error",
             "dups_stationary_error", "dmaps_acceptance_mass"]
    expected = {
        (IndependentBits(0.05, 9), "glauber", 0.8): [
            ("gibbs", "skip", "dimension 9 above cap 8"),
            ("dula", "skip", "dimension 9 above cap 8"),
            ("dula", "skip", "requires the gibbs score"),
            ("dups", "skip", "dimension 9 above cap 8"),
            ("dups", "skip", "dimension 9 above cap 8"),
            ("dula", "skip", "requires the gibbs score"),
            ("dups", "pass", ""),
            ("dmaps", "skip", "requires the stein score")],
        (CurieWeiss(0.2, 0.1, 5), "gibbs", 0.5): [
            ("gibbs", "skip", "requires the glauber score"),
            ("dula", "skip", "precondition unmet: 2d_beta2_le_exp_neg_beta1"),
            ("dula", "skip", "precondition unmet: 4d_beta2_le_1"),
            ("dups", "skip", "precondition unmet: 4d_beta2_exp4beta1_le_1"),
            ("dups", "skip", "precondition unmet: 8d_beta2_le_1"),
            ("dula", "skip", "precondition unmet: 4d_beta2_le_1"),
            ("dups", "skip", "requires the glauber score"),
            ("dmaps", "skip", "requires the stein score")],
    }
    for (model, kind, eta), rows in expected.items():
        results = run_certificates(model, kind, eta)
        assert [r.certificate for r in results] == names
        assert [(r.sampler, r.status, r.reason) for r in results] == rows
        for r in results:
            assert (r.score, r.eta) == (kind, eta)
            assert (r.observed is None) == (r.status == "skip")
            assert r.bound is not None


def test_run_certificates_builds_each_kernel_and_kappa_once(monkeypatch):
    """dula and dups each back two contraction rows and a stationary row."""
    from cubelab import kernels

    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gibbs_matrix", "dula_matrix", "dups_matrix"):
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    monkeypatch.setattr(analysis, "contraction_certificate",
                        counted("kappa", analysis.contraction_certificate))
    results = run_certificates(IndependentBits(0.5, 4), "glauber", 0.4)
    assert [r.status for r in results] == ["pass", "pass", "skip", "pass", "fail",
                                           "skip", "pass", "skip"]
    assert counts == {"gibbs_matrix": 1, "dula_matrix": 1, "dups_matrix": 1, "kappa": 3}


@pytest.mark.parametrize("below, status", [(1e-9, "fail"), (1e-14, "pass")])
def test_a_rate_just_below_the_exact_kappa_fails(below, status, monkeypatch):
    """`FLOAT_GUARD` absorbs roundoff, not a miss: with the dups rate
    claimed `below` the exact kappa of `product_laws`, a claim 1e-9 short
    fails and one 1e-14 short passes."""
    beta, eta = 0.5, 0.8
    exact = product_laws.kappa("dups", "glauber", beta, eta)
    monkeypatch.setattr(analysis, "_CLAIMS", tuple(
        c._replace(bound=lambda *a: exact - below) if c.column == "rate_dups" else c
        for c in analysis._CLAIMS))
    results = run_certificates(IndependentBits(beta, 4), "glauber", eta)
    (row,) = [r for r in results if r.certificate == "dups_contraction"]
    assert (row.status, row.bound) == (status, exact - below)


def test_kernel_matrix_equals_direct_builders():
    from cubelab.errors import ParameterError
    from cubelab.kernels import (SAMPLER_IDS, SCORE_FREE, dmala_matrix, kernel_matrix,
                                 prox_exact_matrix)

    model = CurieWeiss(0.3, 0.2, 4)
    field = ScoreField(model, "stein")
    direct = {"gibbs": gibbs_matrix(model, 0.4), "prox": prox_exact_matrix(model, 0.4),
              "dula": dula_matrix(model, field, 0.4), "dmala": dmala_matrix(model, field, 0.4),
              "dups": dups_matrix(model, field, 0.4), "dmaps": dmaps_matrix(model, field, 0.4)}
    assert set(direct) == set(SAMPLER_IDS)
    for sampler, want in direct.items():
        for score in (field, None) if sampler in SCORE_FREE else (field,):
            got = kernel_matrix(model, sampler, score, 0.4)
            assert np.array_equal(got.probs, want.probs), sampler
            assert (got.sampler, got.score, got.eta) == (want.sampler, want.score, want.eta)
            assert got.symmetries == want.symmetries == model.symmetries()
    with pytest.raises(ParameterError, match="needs a score field"):
        kernel_matrix(model, "dula", None, 0.4)
    with pytest.raises(ParameterError, match="unknown sampler"):
        kernel_matrix(model, "warp", field, 0.4)


# ---------------------------------------------------------------------------
# ties between independent exact computations


def test_exact_diagnostics_agree_with_each_other_property():
    """Over drawn families at d = 2-5, samplers, scores and step sizes, the
    columns of `cli.analyze_row` and the kernel's spectrum obey the
    inequalities that tie them together, each to 1e-12: tv <= W1 <= d tv;
    the coordinate marginals' L1 gap <= W1; lambda2 <= kappa; and a kernel
    in detailed balance with the target has a real spectrum. The row's
    stationary law and W1, solved on the orbits of the target's symmetries,
    are those of the full cube: the law to 1e-13 relative in every entry,
    W1, tv and lambda2 to 1e-12. Derandomized."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from cubelab.cli import analyze_row
    from cubelab.kernels import SAMPLER_IDS

    grids = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2)]
    dims = st.integers(2, 5)
    models = st.one_of(
        st.builds(IndependentBits, st.floats(-1.0, 1.0), dims),
        st.builds(BitsMixture, st.floats(0.0, 1.0), dims),
        st.builds(lambda rc, J, h, periodic: IsingGrid(*rc, J, h, periodic),
                  st.sampled_from(grids), st.floats(-0.6, 0.6), st.floats(-0.5, 0.5),
                  st.booleans()),
        st.builds(CurieWeiss, st.floats(0.0, 0.5), st.floats(-1.0, 1.0), dims))

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hypothesis.given(model=models, sampler=st.sampled_from(SAMPLER_IDS),
                      score=st.sampled_from(SCORE_KINDS), eta=st.floats(0.2, 2.0))
    def check(model, sampler, score, eta):
        d = model.dim
        if sampler == "gibbs":
            # the damped single-flip step needs exp(-2/eta) <= 1/d
            eta = min(eta, 1.9 / math.log(d))
        row, pi = analyze_row(model, sampler, score, eta)
        config = f"{model!r} {sampler} {row['score'] or '-'} eta={eta!r}"
        field = ScoreField(model, row["score"]) if row["score"] else None
        kernel = replace(kernel_matrix(model, sampler, field, eta), symmetries=())
        full = stationary(kernel)
        rel = float((np.abs(pi - full) / full).max())
        assert rel <= 1e-13, f"orbit law off the full law by {rel!r} relative: {config}"
        target = exact_target(model)
        for column, value in (("w_to_target", wasserstein_hamming(full, target)),
                              ("tv_to_target", tv_distance(full, target)),
                              ("lambda2", spectral_summary(kernel, full).lambda2)):
            assert abs(row[column] - value) <= 1e-12, (
                f"{column} {row[column]!r} on the orbits, {value!r} on the cube: {config}")
        tv, w1 = row["tv_to_target"], row["w_to_target"]
        assert tv <= w1 + 1e-12, f"tv {tv!r} > W1 {w1!r}: {config}"
        assert w1 <= d * tv + 1e-12, f"W1 {w1!r} > d tv {d * tv!r}: {config}"
        plus = (all_signs(d) > 0).astype(np.float64)
        gap = float(np.abs((pi - target) @ plus).sum())
        assert gap <= w1 + 1e-12, f"marginal gap {gap!r} > W1 {w1!r}: {config}"
        if row["kappa"] != "":
            lam2, kappa = row["lambda2"], row["kappa"]
            assert lam2 <= kappa + 1e-12, f"lambda2 {lam2!r} > kappa {kappa!r}: {config}"
        if row["db_residual"] <= 1e-12:
            imag = float(np.abs(np.linalg.eigvals(kernel.probs).imag).max())
            assert imag <= 1e-12, (f"eigenvalue with imaginary part {imag!r} under detailed "
                                   f"balance {row['db_residual']!r}: {config}")

    check()


def test_exact_diagnostics_raise_typed_errors_and_never_warn_property():
    """Over drawn families at d <= 6 with every strength up to 400 in
    magnitude, step sizes log-uniform in [0.02, 50], and every sampler and
    score, each exact diagnostic (the kernel, its stationary law, spectrum
    and W1 to the target, and the certificates) returns or raises one of
    the typed errors; the RuntimeWarning filter makes a leaked warning a
    failure. Derandomized."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    typed = (NumericalError, ParameterError, CapabilityError)
    strength = st.floats(-400.0, 400.0)
    dims = st.integers(1, 6)
    families = st.one_of(
        st.tuples(st.just(IndependentBits), strength, dims),
        st.tuples(st.just(BitsMixture), strength, dims),
        st.tuples(st.just(CurieWeiss), strength, st.floats(-6.0, 6.0), dims),
        st.builds(lambda rc, *rest: (IsingGrid, *rc, *rest),
                  st.sampled_from([(1, 2), (1, 3), (2, 2), (1, 4), (1, 5), (2, 3), (1, 6)]),
                  strength, strength, st.booleans()))

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(family=families, sampler=st.sampled_from(kernels.SAMPLER_IDS),
                      score=st.sampled_from(SCORE_KINDS),
                      eta=st.floats(math.log(0.02), math.log(50.0)).map(math.exp))
    def check(family, sampler, score, eta):
        try:
            model = family[0](*family[1:])
        except typed:
            return
        try:
            kernel = kernel_matrix(model, sampler, ScoreField(model, score), eta)
            pi = stationary(kernel)
            spectral_summary(kernel, pi)
            wasserstein_hamming(pi, exact_target(model), kernel.symmetries)
        except typed:
            pass
        try:
            run_certificates(model, score, eta)
        except typed:
            pass

    check()

