import math

import numpy as np
import pytest
from scipy.special import expit

from cubelab import analysis
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
from cubelab.models import BitsMixture, CurieWeiss, IndependentBits, IsingGrid, exact_target
from cubelab.scores import SCORE_KINDS, ScoreField
from cubelab.statespace import all_signs, hamming, state_of


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
    exact = analysis._dual_lp_values(b)
    solve = analysis.linprog

    def skewed(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.ineqlin.marginals[:] *= 1.0 + 1e-6
        return res

    monkeypatch.setattr(analysis, "linprog", skewed)
    with pytest.raises(NumericalError, match="primal flow misses") as err:
        analysis._dual_lp_values(b)
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


def test_wasserstein_needs_a_power_of_two_length():
    with pytest.raises(ValueError, match="length 6 is not a power of two"):
        wasserstein_hamming(np.full(6, 1 / 6), np.full(6, 1 / 6))


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
], ids=["two-dimensional", "negative", "unnormalized", "unequal-lengths"])
def test_distributions_reject_malformed_input(q, message):
    p = np.full(4, 0.25)
    for fn in (tv_distance, wasserstein_hamming):
        with pytest.raises(ValueError, match=message):
            fn(p, q)


def test_tv_examples():
    p = np.zeros(4)
    p[0] = 1.0
    q = np.zeros(4)
    q[3] = 1.0
    assert tv_distance(p, p) == 0.0
    assert tv_distance(p, q) == 1.0


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
                        lambda p, q, *bounds: rows.append(p.shape[0]) or solve(p, q, *bounds))
    return rows


def test_contraction_certificate_dimension_cap(solves):
    model = IsingGrid(3, 3, 0.4, 0.1)
    with pytest.raises(CapabilityError):
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
    closed = ((1 - 2 * expit(-2 / eta))
              * (1 - expit(-2 / eta - 2 * beta) - expit(-2 / eta + 2 * beta)))
    for kind in ("stein", "glauber"):
        cert = contraction_certificate(dups_matrix(model, ScoreField(model, kind), eta))
        assert cert.kappa == pytest.approx(closed, abs=1e-12)
        # every adjacent pair ties in real arithmetic: the witness is the first
        assert cert.kappa == cert.pair_values.max()
        assert cert.witness == tuple(cert.pairs[0])


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
        full = contraction_certificate(kernel)
        reduced = contraction_certificate(kernel, symmetries=model.symmetries())
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
    cert = contraction_certificate(kernel, symmetries=model.symmetries())
    assert np.unique(cert.solved_on).size == orbits
    assert solves == [orbits]
    full = contraction_certificate(kernel)
    assert full.witness == cert.witness
    assert np.abs(full.pair_values - cert.pair_values).max() <= 1e-12


@pytest.mark.parametrize("model, generator", [
    (IsingGrid(2, 3, 0.4, 0.1), ((1, 0, 2, 3, 4, 5), 0)),  # a transposition
    (CurieWeiss(0.2, 0.3, 4), ((0, 1, 2, 3), 0b1111)),  # the global flip at b != 0
    (IsingGrid(2, 2, 0.4, 0.1), ((0, 1, 2, 3), 0b1111)),  # the global flip at h != 0
], ids=repr)
def test_broken_symmetry_raises_before_any_solve(model, generator, solves):
    kernel = dups_matrix(model, ScoreField(model, "glauber"), 0.6)
    with pytest.raises(NumericalError, match="breaks the declared symmetry") as err:
        contraction_certificate(kernel, symmetries=model.symmetries() + (generator,))
    assert err.value.residual > 1e-13
    assert solves == []


def test_malformed_symmetry_is_rejected():
    model = IndependentBits(0.5, 3)
    kernel = gibbs_matrix(model, 0.5)
    for generator in [((0, 0, 1), 0), ((0, 1), 0), ((0, 1, 2), 8), ((0, 1, 2), -1)]:
        with pytest.raises(ParameterError):
            contraction_certificate(kernel, symmetries=(generator,))


@pytest.mark.parametrize("model", [
    BitsMixture(0.5, 5), CurieWeiss(0.2, 0.3, 5), IsingGrid(2, 2, 0.4, 0.1)], ids=repr)
def test_orbit_reduced_kappa_bounds_every_pair(model):
    """The exhaustive flip-path check holds against the copied edge values."""
    for sampler in ("dups", "dmaps"):
        kernel = kernel_matrix(model, sampler, ScoreField(model, "glauber"), 0.6)
        cert = contraction_certificate(kernel, symmetries=model.symmetries())
        _assert_flip_path_bound(kernel.probs, cert.kappa)
        assert np.unique(cert.solved_on).size < len(cert.pairs)


def test_run_certificates_solves_orbit_representatives_only(solves, monkeypatch):
    model = BitsMixture(0.1, 5)
    kappas = []
    certify = analysis.contraction_certificate
    monkeypatch.setattr(analysis, "contraction_certificate",
                        lambda k, **kw: kappas.append((k.sampler, kw)) or certify(k, **kw))
    results = run_certificates(model, "glauber", 0.8)
    assert kappas and all(kw["symmetries"] == model.symmetries() for _, kw in kappas)
    # each sampler's kappa is computed once, whatever number of bounds it meets
    samplers = [sampler for sampler, _ in kappas]
    assert sorted(samplers) == sorted({r.sampler for r in results
                                       if r.observed is not None and "contraction" in r.certificate})
    # three edge orbits at d = 5 (the number of +1 among the other four
    # coordinates, up to the global flip), and one row per stationary W1
    stationary_rows = sum(r.observed is not None and "stationary" in r.certificate
                          for r in results)
    assert sorted(solves) == [1] * stationary_rows + [3] * len(kappas)


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
    certificate that skips the batches they decide gives kappa and the
    witness of the full solve, as the same floats."""
    model, kind, eta = _random_configuration(np.random.default_rng([seed, 16]))
    for sampler in ("dups", "dmala", "dmaps"):
        tag = (model, sampler, kind, eta)
        kernel = kernel_matrix(model, sampler, ScoreField(model, kind), eta)
        upper = analysis._coupling_upper_bounds(model, kernel)
        exact = contraction_certificate(kernel)
        assert not exact.bracketed.any()
        assert (upper >= exact.pair_values - 1e-12).all(), tag
        full = contraction_certificate(kernel, symmetries=model.symmetries())
        cert = analysis._sampler_certificate(model, kernel)
        assert cert.kappa == full.kappa and cert.witness == full.witness, tag
        # a solved pair reports its exact value, a bracketed one its bound
        live = ~cert.bracketed
        assert np.array_equal(cert.pair_values[live], full.pair_values[live]), tag
        assert np.array_equal(cert.pair_values[cert.bracketed],
                              upper[cert.solved_on][cert.bracketed]), tag
        assert (cert.pair_values[cert.bracketed] < cert.kappa).all(), tag
        if model.dim <= 5:
            a, b = cert.witness
            assert cert.kappa == pytest.approx(
                wasserstein_hamming_lp(kernel.probs[a], kernel.probs[b]), abs=1e-9), tag


@pytest.mark.parametrize("sampler", ["gibbs", "prox", "dula"])
def test_samplers_without_a_coupling_bound_solve_every_orbit(sampler):
    model = IsingGrid(2, 2, 0.4, 0.1)
    kernel = kernel_matrix(model, sampler, ScoreField(model, "glauber"), 0.6)
    assert analysis._coupling_upper_bounds(model, kernel) is None
    cert = analysis._sampler_certificate(model, kernel)
    assert not cert.bracketed.any()


def test_d8_grid_dups_certificate_solves_at_most_two_lps(monkeypatch):
    calls = []
    solve = analysis._dual_lp_values
    monkeypatch.setattr(analysis, "_dual_lp_values", lambda b: calls.append(len(b)) or solve(b))
    model = IsingGrid(2, 4, 0.4, 0.1)
    cert = analysis._sampler_certificate(model, dups_matrix(model, ScoreField(model, "glauber"),
                                                            0.4))
    assert len(calls) <= 2
    # one pair per LP call at d = 8: one call per orbit left unbracketed
    assert np.unique(cert.solved_on[~cert.bracketed]).size == len(calls)


def test_upper_bounds_must_cover_every_edge():
    kernel = gibbs_matrix(IndependentBits(0.5, 3), 0.5)
    with pytest.raises(ValueError, match="one per edge"):
        contraction_certificate(kernel, upper=np.ones(11))
    with pytest.raises(ValueError, match="non-finite"):
        contraction_certificate(kernel, upper=np.full(12, np.nan))


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
    with pytest.raises(ParameterError, match="needs a score field"):
        kernel_matrix(model, "dula", None, 0.4)
    with pytest.raises(ParameterError, match="unknown sampler"):
        kernel_matrix(model, "warp", field, 0.4)
