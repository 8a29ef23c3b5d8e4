"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL]/[QUALITATIVE-MISS] line for its
criterion. Two outcomes are expected to be non-green at the pinned
parameters and are reported faithfully rather than loosened:

* criterion 5: the small-step two-stage contraction rate 1 - exp(-1/eta)/2
  is numerically violated by constant-score configurations that satisfy its
  stated preconditions (the kernel's true margin scales like exp(-2/eta));
  the certificate reports the violation and this test fails with the
  measured numbers.
* criterion 9: the qualitative relaxation-time factors (10x mixture, 100x
  grid) do not materialize at the pinned parameters under
  t_rel = 1/(1 - lambda2); per the criterion's own contract the full sweep
  is emitted and the outcome is reported as qualitative-miss instead of a
  silent pass.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import expit

from cubelab import analysis
from cubelab.analysis import (
    bounds_report,
    contraction_certificate,
    detailed_balance_residual,
    run_certificates,
    spectral_summary,
    stationary,
    tv_distance,
    wasserstein_hamming,
    wasserstein_hamming_lp,
)
from cubelab.ctmc import discretization_residual, kernel_deviation
from cubelab.kernels import (
    dmala_matrix,
    dmaps_matrix,
    dula_generator,
    dula_matrix,
    dups_generator,
    dups_matrix,
    gibbs_matrix,
    glauber_generator,
    prox_exact_matrix,
)
from cubelab.models import BitsMixture, CurieWeiss, IndependentBits, IsingGrid, exact_target
from cubelab.scores import ScoreField
from cubelab.simulate import ChainConfig, run_chain, sample_transitions
from cubelab.statespace import state_of

SCORES = ("stein", "gibbs", "glauber")
ACCEPTANCE_MODELS = {
    "bits": IndependentBits(0.5, 6),
    "mixture": BitsMixture(0.5, 6),
    "ising": IsingGrid(3, 3, 0.4, 0.1),
    "curieweiss": CurieWeiss(0.2, 0.0, 6),
}
ACCEPTANCE_ETAS = (0.2, 0.4, 0.8)

# absorbs last-ulp float noise where the inequality is an equality in real
# arithmetic (constant scores); the mathematical tolerance is zero
GUARD = 1e-12


def _line(criterion, status, detail=""):
    print(f"[{status}] criterion {criterion}: {detail}")


def _pick_mixture_beta(dim, etas, kind, entry_group, entry_name):
    """Largest candidate strength whose bound preconditions hold at every
    eta, with the smoothness constant computed first."""
    for beta in (0.3, 0.25, 0.2, 0.15, 0.1, 0.05, 0.02):
        model = BitsMixture(beta, dim)
        reports = [bounds_report(model, kind, eta) for eta in etas]
        entries = [getattr(r, entry_group)[entry_name] for r in reports]
        if all(e.applicable for e in entries):
            return model
    raise AssertionError("no mixture strength satisfies the preconditions")


def test_criterion_1_reversible_exactness():
    started = time.perf_counter()
    worst_db = 0.0
    worst_tv = 0.0
    for name, model in ACCEPTANCE_MODELS.items():
        target = exact_target(model)
        for eta in ACCEPTANCE_ETAS:
            for kernel in (gibbs_matrix(model, eta), prox_exact_matrix(model, eta)):
                db = detailed_balance_residual(kernel, target)
                worst_db = max(worst_db, db)
                assert db <= 1e-12, f"{name} {kernel.sampler} eta={eta}: db={db:.3e}"
            for kind in SCORES:
                field = ScoreField(model, kind)
                for build in (dmala_matrix, dmaps_matrix):
                    kernel = build(model, field, eta)
                    tv = tv_distance(stationary(kernel), target)
                    worst_tv = max(worst_tv, tv)
                    assert tv <= 1e-9, (
                        f"{name} {kernel.sampler}/{kind} eta={eta}: tv={tv:.3e}")
    elapsed = time.perf_counter() - started
    assert elapsed <= 120.0, f"criterion 1 budget exceeded: {elapsed:.1f}s"
    _line(1, "PASS", f"worst db={worst_db:.2e}, worst tv={worst_tv:.2e}, "
                     f"{elapsed:.0f}s for all models at d <= 9")


def test_criterion_2_dups_exact_on_product_target():
    model = IndependentBits(0.5, 6)
    target = exact_target(model)
    field = ScoreField(model, "stein")
    worst = 0.0
    for eta in (0.2, 0.5, 1.0):
        tv = tv_distance(stationary(dups_matrix(model, field, eta)), target)
        worst = max(worst, tv)
        assert tv <= 1e-12, f"eta={eta}: tv={tv:.3e}"
    _line(2, "PASS", f"worst tv={worst:.2e} over eta in (0.2, 0.5, 1.0)")


def test_criterion_3_dula_stationary_error_bound():
    etas = (0.2, 0.25, 0.3)
    mixture = _pick_mixture_beta(6, etas, "gibbs", "errors", "dula_small_step")
    checked = []
    for model in (IndependentBits(0.3, 6), mixture):
        target = exact_target(model)
        field = ScoreField(model, "gibbs")
        for eta in etas:
            report = bounds_report(model, "gibbs", eta)
            entry = report.errors["dula_small_step"]
            assert entry.applicable, (model, eta, report.flags)
            w = wasserstein_hamming(stationary(dula_matrix(model, field, eta)), target)
            assert w <= entry.value + GUARD, (
                f"{model.name} eta={eta}: W={w:.6e} > bound={entry.value:.6e}")
            checked.append((model.name, eta, w, entry.value))
    _line(3, "PASS", f"{len(checked)} configurations, mixture beta="
                     f"{mixture.beta}, all W within the closed-form bound")


def test_criterion_4_dups_stationary_error_bound():
    etas = (0.2, 0.25, 0.3)
    mixture = _pick_mixture_beta(6, etas, "glauber", "errors", "dups_small_step")
    checked = []
    for model in (IndependentBits(0.3, 6), mixture):
        target = exact_target(model)
        field = ScoreField(model, "glauber")
        for eta in etas:
            report = bounds_report(model, "glauber", eta)
            entry = report.errors["dups_small_step"]
            assert entry.applicable, (model, eta, report.flags)
            w = wasserstein_hamming(stationary(dups_matrix(model, field, eta)), target)
            assert w <= entry.value + GUARD, (
                f"{model.name} eta={eta}: W={w:.6e} > bound={entry.value:.6e}")
            checked.append((model.name, eta, w, entry.value))
    _line(4, "PASS", f"{len(checked)} configurations, mixture beta="
                     f"{mixture.beta}, all W within the closed-form bound")


CONTRACTION_CERTS = (
    "gibbs_contraction", "dula_contraction", "dula_contraction_small_step",
    "dups_contraction", "dups_contraction_small_step",
)


def test_criterion_5_contraction_certificates():
    evaluated = 0
    failures = []
    for name, model in ACCEPTANCE_MODELS.items():
        for eta in ACCEPTANCE_ETAS:
            for kind in SCORES:
                for cert in run_certificates(model, kind, eta):
                    if cert.certificate not in CONTRACTION_CERTS:
                        continue
                    if cert.status == "skip":
                        continue
                    evaluated += 1
                    if cert.status == "fail":
                        failures.append(
                            f"{cert.certificate} on {name}/{kind} eta={eta}: "
                            f"kappa={cert.observed:.9f} > bound={cert.bound:.9f}")
    if failures:
        _line(5, "FAIL", f"{len(failures)} of {evaluated} applicable "
                         "certificates violated")
        for f in failures:
            print("   " + f)
        pytest.fail(
            "criterion 5: the small-step two-stage contraction rate "
            "1 - exp(-1/eta)/2 is violated under its stated preconditions "
            "(8 d beta2 <= 1 and alignment >= -1/(2 eta) both hold). For a "
            "constant score the kernel's exact adjacent-pair transport is "
            "(1 - 2 sigma(-2/eta)) * (1 - sigma(-2/eta - 2 beta) - "
            "sigma(-2/eta + 2 beta)), whose contraction margin scales like "
            "exp(-2/eta), strictly less than the claimed exp(-1/eta)/2 for "
            "eta below ~0.6. The transport solver agrees with the coupling LP to "
            "1e-9 on these rows, so the measurement stands:\n  "
            + "\n  ".join(failures))
    assert evaluated > 0
    _line(5, "PASS", f"all {evaluated} applicable contraction certificates hold")


def test_criterion_6_discretization_order():
    models = [IndependentBits(0.5, 5), IsingGrid(2, 2, 0.4, 0.1), BitsMixture(0.5, 4)]
    etas = (0.5, 0.4, 0.3, 0.25)
    checked = 0
    for model in models:
        gibbs_field = ScoreField(model, "gibbs")
        q_glauber = glauber_generator(model)
        # the independent-flip generator with the gibbs score is the
        # single-flip generator itself
        np.testing.assert_allclose(dula_generator(gibbs_field).rates,
                                   q_glauber.rates, atol=1e-12)
        sequences = {}
        sequences["dula/gibbs vs single-flip generator"] = [
            discretization_residual(dula_matrix(model, gibbs_field, eta), q_glauber)
            for eta in etas]
        for kind in SCORES:
            field = ScoreField(model, kind)
            q = dups_generator(field)
            sequences[f"dups/{kind} vs two-stage generator"] = [
                discretization_residual(dups_matrix(model, field, eta), q)
                for eta in etas]
        glauber_field = ScoreField(model, "glauber")
        sequences["dups/glauber vs exact proximal"] = [
            kernel_deviation(dups_matrix(model, glauber_field, eta),
                             prox_exact_matrix(model, eta))
            for eta in etas]
        for label, residuals in sequences.items():
            checked += 1
            # residuals at machine noise are exactly zero in real arithmetic
            # (constant scores make the compared kernels identical) and carry
            # no order information
            if max(residuals) <= 1e-13:
                continue
            ratios = [r / math.exp(-4.0 / eta) for r, eta in zip(residuals, etas)]
            cap = 2.0 * ratios[0]
            assert all(r <= cap + 1e-9 for r in ratios), (
                f"{model.name} {label}: ratios {ratios} exceed 2x "
                f"their value at eta=0.5")
    _line(6, "PASS", f"{checked} residual/exp(-4/eta) sequences bounded by "
                     "2x their eta=0.5 value")


def test_criterion_7_transport_oracle_agreement():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(8))
        q = rng.dirichlet(np.ones(8))
        gap = abs(wasserstein_hamming(p, q) - wasserstein_hamming_lp(p, q))
        worst = max(worst, gap)
        assert gap <= 1e-9
    _line(7, "PASS", f"transport vs coupling LP within {worst:.2e} on 100 pairs at d=3")


def test_criterion_8_spectral_oracle():
    worst = 0.0
    for d in (3, 6):
        model = IndependentBits(0.5, d)
        for eta in (0.3, 0.5, 1.0):
            lam2 = spectral_summary(gibbs_matrix(model, eta)).lambda2
            gap = abs(lam2 - (1.0 - math.exp(-2.0 / eta)))
            worst = max(worst, gap)
            assert gap <= 1e-10, f"d={d} eta={eta}: |lambda2 - (1-h)| = {gap:.2e}"
    _line(8, "PASS", f"tensorized spectrum reproduced within {worst:.2e}")


def test_criterion_9_qualitative_figure_checks():
    lines = []

    # mixture: somewhere on the sweep grid the two-stage sampler should relax
    # an order of magnitude faster than single-flip resampling while staying
    # within W <= 0.1 d of the target
    mixture = BitsMixture(0.5, 6)
    target = exact_target(mixture)
    stein = ScoreField(mixture, "stein")
    mixture_hit = False
    lines.append("mixture d=6 beta=0.5 sweep (eta, t_rel gibbs, t_rel dups/stein, W):")
    for eta in np.geomspace(0.1, 1.1, 10):
        if math.exp(-2.0 / eta) > 1.0 / 6.0:
            continue
        t_gibbs = spectral_summary(gibbs_matrix(mixture, eta)).t_rel
        kernel = dups_matrix(mixture, stein, eta)
        pi = stationary(kernel)
        t_dups = spectral_summary(kernel, pi).t_rel
        w = wasserstein_hamming(pi, target)
        hit = t_dups <= t_gibbs / 10.0 and w <= 0.1 * 6
        mixture_hit = mixture_hit or hit
        lines.append(f"  {eta:6.3f}  {t_gibbs:12.2f}  {t_dups:12.2f}  {w:8.4f}"
                     f"{'  <-- factor-10 point' if hit else ''}")

    # grid: near eta = 0.4 the two-stage relaxation should beat single-flip
    # resampling by two orders of magnitude
    grid = IsingGrid(3, 3, 0.4, 0.1)
    grid_stein = ScoreField(grid, "stein")
    grid_hit = False
    lines.append("ising 3x3 J=0.4 h=0.1 near eta=0.4 (eta, t_rel gibbs, t_rel dups):")
    for eta in (0.35, 0.4, 0.45):
        t_gibbs = spectral_summary(gibbs_matrix(grid, eta)).t_rel
        t_dups = spectral_summary(dups_matrix(grid, grid_stein, eta)).t_rel
        hit = t_dups <= t_gibbs / 100.0
        grid_hit = grid_hit or hit
        lines.append(f"  {eta:6.3f}  {t_gibbs:12.2f}  {t_dups:12.2f}"
                     f"  ratio={t_gibbs / t_dups:6.1f}"
                     f"{'  <-- factor-100 point' if hit else ''}")

    if mixture_hit and grid_hit:
        _line(9, "PASS", "both qualitative relaxation-time factors reproduced")
        return
    _line(9, "QUALITATIVE-MISS",
          "relaxation-time factors not reached at the pinned parameters; "
          "full sweep follows")
    for ln in lines:
        print(ln)
    pytest.xfail(
        "criterion 9 qualitative-miss: the two-stage sampler relaxes only "
        "~4-6x faster than single-flip resampling at these parameters "
        "(factor-10/factor-100 targets not reached); sweep emitted above "
        "per the criterion's miss contract\n" + "\n".join(lines))


def test_criterion_10_simulation_matrix_consistency():
    started = time.perf_counter()
    model = IsingGrid(2, 2, 0.4, 0.1)
    eta = 0.5
    target = exact_target(model)
    start_state = state_of(5, 4)
    plans = [("gibbs", None), ("dula", "gibbs"), ("dmala", "gibbs"),
             ("dups", "glauber"), ("dmaps", "glauber")]
    builders = {"gibbs": lambda f: gibbs_matrix(model, eta),
                "dula": lambda f: dula_matrix(model, f, eta),
                "dmala": lambda f: dmala_matrix(model, f, eta),
                "dups": lambda f: dups_matrix(model, f, eta),
                "dmaps": lambda f: dmaps_matrix(model, f, eta)}
    n_one_step = 1_000_000
    for plan_index, (sampler, kind) in enumerate(plans):
        field = None if kind is None else ScoreField(model, kind)
        kernel = builders[sampler](field)

        # one-step law from a fixed state (string hashes are randomized per
        # process, so the stream is seeded by the plan position instead)
        rng = np.random.default_rng(1000 + plan_index)
        nxt = sample_transitions(model, sampler, kind, eta, start_state,
                                 n_one_step, rng)
        freq = np.bincount(nxt, minlength=16) / n_one_step
        row = kernel.probs[start_state.bits]
        sigma = np.sqrt(row * (1 - row) / n_one_step)
        assert (np.abs(freq - row) <= 4 * sigma + 1e-12).all(), (
            f"{sampler}: one-step law off by "
            f"{np.max(np.abs(freq - row) / np.maximum(sigma, 1e-300)):.1f} sigma")

        # stationary occupancy from one million sequential steps, thinned to
        # approximate independence so binomial error bars apply
        pi = stationary(kernel)
        thin = max(1, int(4 * spectral_summary(kernel, pi).t_rel) + 1)
        cfg = ChainConfig(sampler, model, kind, eta, steps=125_000, burn_in=4000,
                          thinning=thin, chains=8, seed=271828)
        res = run_chain(cfg)
        n = res.retained * cfg.chains
        occ = res.state_counts.sum(axis=0) / n
        sigma = np.sqrt(pi * (1 - pi) / n)
        assert (np.abs(occ - pi) <= 4 * sigma + 1e-12).all(), (
            f"{sampler}: occupancy off by "
            f"{np.max(np.abs(occ - pi) / np.maximum(sigma, 1e-300)):.1f} sigma "
            f"(retained {n})")
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0, f"criterion 10 budget exceeded: {elapsed:.1f}s"
    _line(10, "PASS", f"5 samplers, one-step and occupancy within 4 sigma, "
                      f"{elapsed:.0f}s")
