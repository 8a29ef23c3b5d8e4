"""Exact numerical verification of sampler kernels at small dimension.

This module owns the quantities the verification harness asserts against:
stationary distributions, spectra and relaxation times, exact
Wasserstein/total-variation distances under the Hamming metric, adjacent-pair
contraction certificates, detailed-balance residuals, and closed-form
evaluators for every contraction-rate and stationary-error bound, including
the adjusted proximal sampler's acceptance constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import expit, logit

from . import kernels as _k
from .errors import CapabilityError, NumericalError, ParameterError
from .kernels import KernelMatrix
from .models import TargetModel, exact_target
from .scores import ScoreField, smooth_beta_constants
from .statespace import all_signs

# a certificate costs one optimal-transport solve per orbit of hypercube
# edges under the target's declared symmetries: every edge when it declares
# none, about d orbits on the exchangeable models
CONTRACTION_DIM_CAP = 8
# exhaustive flip-path validation solves every pair of states
ALL_PAIRS_DIM_CAP = 5
# largest entrywise |K[g][:, g] - K| a declared symmetry g may leave; kernels
# built from invariant targets stay within 1e-14
SYMMETRY_TOL = 1e-13
# the full-sum Metropolis reference enumerates 2^d auxiliary states per pair
MH_ORACLE_DIM_CAP = 6
DIRECT_SOLVE_DIM_CAP = 6
# `stationary` stops once || pi t - pi ||_1 is below this, squaring the
# kernel at most this many times
STATIONARY_TOL = 1e-13
STATIONARY_MAX_DOUBLINGS = 60
# detailed-balance residual below which `spectral_summary` treats a kernel
# as reversible
REVERSIBILITY_TOL = 1e-10


def _require_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    _k._require_finite(p, name)
    if p.min() < -1e-12:
        raise ValueError(f"{name} has a negative entry: {p.min():.3e}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} is not normalized: sum = {p.sum()!r}")
    return p


# ---------------------------------------------------------------------------
# stationary distributions


def stationary(kernel: KernelMatrix) -> np.ndarray:
    """Left fixed vector of a row-stochastic kernel by power iteration.

    Plain iterations handle fast-mixing kernels; for sticky ones (spectral
    gaps down to ~1e-12) the operator is repeatedly squared, which keeps the
    iterate count logarithmic in the gap. The residual || pi t - pi ||_1 is
    always measured against the original kernel, and iteration continues
    past the residual target until the iterate itself stops moving, so the
    returned vector is stationary to machine precision rather than merely
    within the residual tolerance.

    Raises NumericalError (with the best residual attached, plus the best
    iterate on its `best` attribute) if the target is never reached.
    """
    t = kernel.probs
    n = t.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(50):
        nxt = pi @ t
        nxt /= nxt.sum()
        moved = float(np.abs(nxt - pi).sum())
        pi = nxt
        if moved < 1e-16:
            break
    res = float(np.abs(pi @ t - pi).sum())
    if res <= STATIONARY_TOL:
        return pi
    m = t.copy()
    for _ in range(STATIONARY_MAX_DOUBLINGS):
        m = m @ m
        m /= m.sum(axis=1, keepdims=True)  # absorb roundoff drift
        nxt = pi @ m
        nxt /= nxt.sum()
        moved = float(np.abs(nxt - pi).sum())
        pi = nxt
        res = float(np.abs(pi @ t - pi).sum())
        if res <= STATIONARY_TOL and moved < 1e-14:
            return pi
    if res <= STATIONARY_TOL:
        return pi
    err = NumericalError(
        f"stationary iteration stalled at residual {res:.3e} (target {STATIONARY_TOL:.1e})",
        residual=res)
    err.best = pi
    raise err


def stationary_direct(kernel: KernelMatrix) -> np.ndarray:
    """Stationary vector by a dense linear solve; cross-check at small d.

    Replaces one row of (t^T - I) with the normalization constraint. Kept
    separate from the iterative path because near-singular systems can
    trip the pivoting; the iterative solver is the production route.
    """
    if kernel.dim > DIRECT_SOLVE_DIM_CAP:
        raise CapabilityError(
            f"direct stationary solve capped at d <= {DIRECT_SOLVE_DIM_CAP}")
    t = kernel.probs
    n = t.shape[0]
    a = t.T - np.eye(n)
    a[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(a, rhs)
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectralSummary:
    """Second-largest eigenvalue modulus and the relaxation time 1/(1-lambda2).

    The modulus convention covers non-reversible kernels with complex
    spectra, for which the modulus governs asymptotic geometric convergence.
    """

    lambda2: float
    t_rel: float
    reversible: bool


def spectral_summary(kernel: KernelMatrix, pi: np.ndarray | None = None) -> SpectralSummary:
    """Spectral gap summary of a kernel.

    Kernels detected as reversible (detailed-balance residual against their
    stationary vector below `REVERSIBILITY_TOL`) are symmetrized by the
    stationary similarity transform and handed to a symmetric eigensolver;
    all others go through the dense nonsymmetric path. A unit lambda2 is
    reported with an infinite relaxation time.
    """
    t = kernel.probs
    if pi is None:
        pi = stationary(kernel)
    db = detailed_balance_residual(kernel, pi)
    reversible = db <= REVERSIBILITY_TOL
    if reversible:
        root = np.sqrt(pi)
        sym = (root[:, None] / root[None, :]) * t
        sym = 0.5 * (sym + sym.T)
        mods = np.abs(np.linalg.eigvalsh(sym))
    else:
        mods = np.abs(np.linalg.eigvals(t))
    mods.sort()
    lam2 = min(float(mods[-2]), 1.0)
    t_rel = math.inf if lam2 >= 1.0 - 1e-15 else 1.0 / (1.0 - lam2)
    return SpectralSummary(lam2, t_rel, reversible)


# ---------------------------------------------------------------------------
# distances


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, half the L1 difference."""
    p = _require_distribution(p, "p")
    q = _require_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError("distributions have different lengths")
    return 0.5 * float(np.abs(p - q).sum())


def wasserstein_hamming(p: np.ndarray, q: np.ndarray) -> float:
    """Exact 1-Wasserstein distance under the Hamming metric.

    Hamming distance is the graph metric of the hypercube, so W1 is the
    Kantorovich dual max <f, p - q> over potentials f that change by at most
    1 across every edge. Product laws take the closed form sum_i |P_i - Q_i|
    of their coordinate marginals; all other pairs solve the dual LP (see
    `_transport_values`).
    """
    p = _require_distribution(p, "p")
    q = _require_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError("distributions have different lengths")
    n = p.shape[0]
    d = n.bit_length() - 1
    if (1 << d) != n:
        raise ValueError(f"length {n} is not a power of two")
    if abs(float((p - q).sum())) > 1e-10:
        raise ValueError("supplies are unbalanced beyond 1e-10")
    return float(_transport_values(p[None, :], q[None, :])[0])


# supply entries this small are roundoff, not mass to move
_SUPPLY_TOL = 1e-15
# L1 distance from the product of its own marginals below which a row is a
# product law; the closed form is then within d times this of the exact W1
_PRODUCT_TOL = 1e-13
# HiGHS working memory grows with the LP, so one call stacks at most this
# many potentials: 4 pairs at d = 6, one pair from d = 8 on
_LP_MAX_VARS = 256


def _product_residual(rows: np.ndarray, marginals: np.ndarray) -> np.ndarray:
    """L1 distance of each row from the product law of its P(x_i = +1), which
    is the law of the flip pattern from the all-(-1) state 0."""
    return np.abs(rows - np.exp(_k._flip_log_probs(logit(marginals)))).sum(axis=1)


def _adjacent_pairs(d: int) -> np.ndarray:
    """(k, k + 2^i) for every edge of the d-cube, by coordinate i, then k."""
    ks = np.arange(1 << d)
    lo = np.concatenate([ks[(ks >> i) & 1 == 0] for i in range(d)])
    return np.stack([lo, lo | (1 << np.repeat(np.arange(d), 1 << (d - 1)))], axis=1)


@functools.lru_cache(maxsize=None)
def _edge_lp(d: int, blocks: int):
    """Constraints +-(f(k) - f(k ^ e_i)) <= 1 on every hypercube edge, for
    `blocks` independent copies of the cube, and bounds pinning f(0) = 0 in
    each copy."""
    n = 1 << d
    edges = _adjacent_pairs(d)
    e = edges.shape[0]
    incidence = sparse.csr_array(
        (np.tile([1.0, -1.0], e), (np.repeat(np.arange(e), 2), edges.ravel())), shape=(e, n))
    a = sparse.kron(sparse.eye_array(blocks), sparse.vstack([incidence, -incidence]),
                    format="csr")
    bounds = np.full((blocks * n, 2), [-np.inf, np.inf])
    bounds[::n] = 0.0
    return a, np.ones(a.shape[0]), bounds


def _dual_lp_values(b: np.ndarray) -> np.ndarray:
    """Kantorovich dual of each row of supplies b, as one block-diagonal LP.

    The edge constraint matrix is totally unimodular, so HiGHS's optimal
    vertex has integer potentials; they are rounded and the value is
    <round(f), b>, a feasible dual and hence exact to summation roundoff.
    """
    blocks, n = b.shape
    a, ub, bounds = _edge_lp(n.bit_length() - 1, blocks)
    # the dual feasibility tolerance is absolute: scaling each block's largest
    # supply to 1e6 puts it at 1e-16 of that supply
    cost = -(1e6 * b / np.abs(b).max(axis=1, keepdims=True)).ravel()
    res = linprog(cost, A_ub=a, b_ub=ub, bounds=bounds, method="highs-ds",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise NumericalError(f"transport dual LP failed: {res.message}")
    f = res.x.reshape(blocks, n)
    f_int = np.round(f)
    off = float(np.abs(f - f_int).max())
    if off > 1e-6:
        raise NumericalError(f"transport dual potentials are {off:.1e} from integers",
                             residual=off)
    return (f_int * b).sum(axis=1)


def _transport_values(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact Hamming W1 between the rows of two (m, 2^d) arrays.

    Each pair takes one of three paths: a pair whose supplies p - q vanish
    (entries up to 1e-15 are zeroed) is exactly 0; a pair of product laws
    is sum_i |P_i - Q_i|; every other pair goes to the dual LP, several
    pairs to a HiGHS call.
    """
    m, n = p.shape
    d = n.bit_length() - 1
    b = p - q
    b[np.abs(b) <= _SUPPLY_TOL] = 0.0
    values = np.zeros(m)
    live = b.any(axis=1)
    plus = (all_signs(d) > 0).astype(np.float64)
    mp, mq = p @ plus, q @ plus
    product = (live & (_product_residual(p, mp) <= _PRODUCT_TOL)
               & (_product_residual(q, mq) <= _PRODUCT_TOL))
    values[product] = np.abs(mp[product] - mq[product]).sum(axis=1)
    rest = np.flatnonzero(live & ~product)
    per_call = max(1, _LP_MAX_VARS >> d)
    for start in range(0, rest.size, per_call):
        idx = rest[start:start + per_call]
        values[idx] = _dual_lp_values(b[idx])
    return values


def wasserstein_hamming_lp(p: np.ndarray, q: np.ndarray) -> float:
    """Reference transport value from the full coupling linear program.

    Enumerates all 4^d coupling entries with marginal equality constraints;
    exponentially large, so it only exists to anchor the transport solver at
    small dimension.
    """
    p = _require_distribution(p, "p")
    q = _require_distribution(q, "q")
    n = p.shape[0]
    d = n.bit_length() - 1
    if d > MH_ORACLE_DIM_CAP:
        raise CapabilityError(f"coupling LP capped at d <= {MH_ORACLE_DIM_CAP}")
    cost = np.bitwise_count(np.arange(n)[:, None] ^ np.arange(n)).astype(np.float64).ravel()
    row_marginals = np.kron(np.eye(n), np.ones(n))
    col_marginals = np.kron(np.ones(n), np.eye(n))
    a_eq = np.vstack([row_marginals, col_marginals])
    b_eq = np.concatenate([p, q])
    # default solver tolerances (1e-7) are too loose for a 1e-9 reference
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise NumericalError(f"coupling LP failed: {res.message}")
    return float(res.fun)


def detailed_balance_residual(kernel: KernelMatrix, p: np.ndarray) -> float:
    """max over pairs of |p(x) t(x'|x) - p(x') t(x|x')|."""
    p = _require_distribution(p, "p")
    flux = p[:, None] * kernel.probs
    return float(np.abs(flux - flux.T).max())


# ---------------------------------------------------------------------------
# contraction certificates


@dataclass(frozen=True)
class ContractionCertificate:
    """Empirical contraction factor over Hamming-adjacent state pairs.

    `pair_values[j]` is the exact W1 between the kernel rows of `pairs[j]`,
    and kappa is its max, which bounds the Wasserstein ratio for every pair
    by the triangle inequality along a flip path; `all_pairs_checked`
    records whether that implication was verified exhaustively.
    `solved_on[j]` is the index of the pair whose transport solve gave
    `pair_values[j]`: j itself, or the lowest-index pair of its orbit under
    the declared symmetries. `contraction_certificate` always fills it; with
    no symmetries every entry is its own index.
    """

    kappa: float
    witness: tuple[int, int]
    pairs: np.ndarray
    pair_values: np.ndarray
    all_pairs_checked: bool = False
    solved_on: np.ndarray | None = None


def _checked_isometry(t: np.ndarray, sigma, flip_mask: int) -> np.ndarray:
    """Image g(k) of every state word under the isometry (sigma, flip_mask),
    after checking that the kernel t commutes with it: t[g(x), g(y)] = t[x, y]."""
    n = t.shape[0]
    d = n.bit_length() - 1
    if sorted(sigma) != list(range(d)) or not 0 <= flip_mask < n:
        raise ParameterError(
            f"({sigma}, {flip_mask}) is not an isometry of the {d}-cube")
    ks = np.arange(n)
    img = np.zeros_like(ks)
    for i, j in enumerate(sigma):
        img |= ((ks >> i) & 1) << j
    img ^= flip_mask
    dev = float(np.abs(t[np.ix_(img, img)] - t).max())
    if dev > SYMMETRY_TOL:
        raise NumericalError(
            f"kernel breaks the declared symmetry (sigma={tuple(sigma)}, "
            f"flip_mask={flip_mask:#x}) by {dev:.3e} > {SYMMETRY_TOL:.0e}", residual=dev)
    return img


def _edge_orbits(d: int, images: list[np.ndarray]) -> np.ndarray:
    """Lowest index in each edge's orbit under the group that the state maps
    `images` generate, with edges indexed as in `_adjacent_pairs(d)`."""
    pairs = _adjacent_pairs(d)
    steps = []
    for img in images:
        a, b = img[pairs[:, 0]], img[pairs[:, 1]]
        j = np.bitwise_count((a ^ b) - 1).astype(np.int64)  # the coordinate it flips
        lo = np.minimum(a, b)
        # rank of lo among the words with bit j clear
        fwd = (j << (d - 1)) | (lo & ((1 << j) - 1)) | ((lo >> (j + 1)) << j)
        inv = np.empty_like(fwd)
        inv[fwd] = np.arange(fwd.size)
        steps += [fwd, inv]
    # labels only ever move to a smaller index in the same orbit, and stop
    # once no generator step lowers one: then each orbit carries its minimum
    labels = np.arange(pairs.shape[0])
    while True:
        nxt = labels
        for step in steps:
            nxt = np.minimum(nxt, nxt[step])
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def contraction_certificate(kernel: KernelMatrix, all_pairs: bool = False,
                            symmetries: tuple = ()) -> ContractionCertificate:
    """Worst adjacent-pair W1 of a kernel, from one transport solve per orbit
    of hypercube edges.

    `symmetries` are cube isometries `(sigma, flip_mask)`, as declared by
    `TargetModel.symmetries`. Each is first checked on the kernel itself,
    and one it breaks by more than `SYMMETRY_TOL` raises NumericalError
    before any solve. A symmetry maps every edge to one with the same W1,
    so only the lowest-index edge of each orbit is solved, all in one
    batch, and its value is copied to the rest of the orbit; with none,
    every edge is its own orbit. `all_pairs=True` then checks the
    flip-path bound W <= kappa * Hamming against the exact W1 of every pair
    of states, at d <= `ALL_PAIRS_DIM_CAP`.
    """
    d = kernel.dim
    if d > CONTRACTION_DIM_CAP:
        raise CapabilityError(
            f"contraction certificates capped at d <= {CONTRACTION_DIM_CAP}, got {d}")
    if all_pairs and d > ALL_PAIRS_DIM_CAP:
        raise CapabilityError(
            f"exhaustive pair validation capped at d <= {ALL_PAIRS_DIM_CAP}, got {d}")
    t = kernel.probs
    pairs = _adjacent_pairs(d)
    solved_on = _edge_orbits(d, [_checked_isometry(t, sigma, mask) for sigma, mask in symmetries])
    reps = np.flatnonzero(solved_on == np.arange(pairs.shape[0]))
    values = _transport_values(t[pairs[reps, 0]], t[pairs[reps, 1]])
    values = values[np.searchsorted(reps, solved_on)]
    kappa = float(values.max())
    # pairs that tie in real arithmetic differ in the last ulps; the lowest
    # index among them is a witness that noise cannot move
    top = int(np.argmax(values >= kappa - 1e-12 * max(1.0, kappa)))
    if all_pairs:
        a, c = np.triu_indices(1 << d, 1)
        ell = np.bitwise_count(a ^ c)
        w = _transport_values(t[a], t[c])
        bad = np.flatnonzero(w > kappa * ell + 1e-9)
        if bad.size:
            j = bad[0]
            raise NumericalError(
                f"pair ({a[j]}, {c[j]}) violates the flip-path bound: "
                f"W = {w[j]:.6e} > kappa * ell = {kappa * ell[j]:.6e}")
    return ContractionCertificate(kappa, (int(pairs[top, 0]), int(pairs[top, 1])),
                                  pairs, values, all_pairs, solved_on)


# ---------------------------------------------------------------------------
# closed-form bounds


def gibbs_contraction_bound(dim: int, eta: float, beta2: float) -> float:
    """Contraction factor of the damped single-flip kernel: 1 - h (1 - d beta2)."""
    return 1.0 - math.exp(-2.0 / eta) * (1.0 - dim * beta2)


def dula_contraction_bound(eta: float, beta1: float) -> float:
    """Independent-flip contraction for regular scores: 1 - exp(-2/eta - beta1)/2."""
    return 1.0 - 0.5 * math.exp(-2.0 / eta - beta1)


def dula_small_step_contraction_bound(eta: float) -> float:
    """Small-step independent-flip contraction: 1 - exp(-2/eta)/4."""
    return 1.0 - 0.25 * math.exp(-2.0 / eta)


def dups_contraction_bound(eta: float) -> float:
    """Two-stage proximal contraction for regular scores: 1 - 2 sigma(-2/eta)."""
    return 1.0 - 2.0 * float(expit(-2.0 / eta))


def dups_small_step_contraction_bound(eta: float) -> float:
    """Small-step two-stage contraction: 1 - exp(-1/eta)/2."""
    return 1.0 - 0.5 * math.exp(-1.0 / eta)


def dula_stationary_error_bound(dim: int, eta: float) -> float:
    """Wasserstein error of the independent-flip stationary law: 4d/(1+e^{2/eta})."""
    return 4.0 * dim * float(expit(-2.0 / eta))


def dups_stationary_error_bound(dim: int, eta: float) -> float:
    """Wasserstein error of the proximal stationary law:
    (d^3/2) (1+e^{-1/eta})^{d-1} e^{-1/eta}."""
    r = math.exp(-1.0 / eta)
    return 0.5 * dim**3 * (1.0 + r) ** (dim - 1) * r


def dula_static_error_bound(dim: int, beta1: float) -> float:
    """Step-size-free error bound 2d (2d beta1 e^{2 beta1} + sqrt(d beta1 e^{2 beta1}))."""
    try:
        g = dim * beta1 * math.exp(2.0 * beta1)
    except OverflowError:  # beta1 past ~355: the bound is inf, hence vacuous
        return math.inf
    return 2.0 * dim * (2.0 * g + math.sqrt(g))


def dups_static_error_bound(dim: int, beta2: float) -> float:
    """Step-size-free proximal error bound 12 d sqrt(beta2 d)."""
    return 12.0 * dim * math.sqrt(beta2 * dim)


def dmaps_acceptance_lipschitz(dim: int, eta: float, beta1: float,
                               beta2: float) -> float:
    """Lipschitz constant of the adjusted proximal acceptance in the start state."""
    s0 = float(expit(-2.0 / eta))
    s1 = float(expit(-2.0 / eta + beta1))
    return 6.0 * beta1 + 4.0 * dim**1.5 * math.sqrt(s0 + s1) * beta2


def dmaps_rejection_bound(dim: int, eta: float, beta1: float, beta2: float) -> float:
    """Upper bound on the expected rejection mass of the adjusted proximal kernel.

    Follows the chain E[A] >= exp(-2 beta2 E[l(x,x')^2]
    - 4 beta2 sqrt(E[l(x,x')^2] E[l(x,z)^2])) with the moment bounds
    E[l(x,z)^2] <= d^2 sigma(-2/eta) and
    E[l(x,x')^2] <= d^2 (sigma(-2/eta) + sigma(-2/eta + beta1)),
    so the bound vanishes with beta2.
    """
    s0 = float(expit(-2.0 / eta))
    s1 = float(expit(-2.0 / eta + beta1))
    exponent = (-2.0 * beta2 * dim**2 * (s0 + s1)
                - 4.0 * beta2 * dim**2 * math.sqrt(s0 * s0 + s0 * s1))
    return 1.0 - math.exp(exponent)


def dmaps_contraction_bound(epsilon: float, dim: int, eta: float, beta1: float,
                            beta2: float) -> float:
    """Contraction factor 1 - epsilon + delta + L D of the adjusted proximal
    sampler, with D = d the hypercube diameter and epsilon the unadjusted
    kernel's contraction margin."""
    return (1.0 - epsilon
            + dmaps_rejection_bound(dim, eta, beta1, beta2)
            + dim * dmaps_acceptance_lipschitz(dim, eta, beta1, beta2))


# ---------------------------------------------------------------------------
# bound report


@dataclass(frozen=True)
class BoundEntry:
    """One evaluated bound: raw value, what gates it, and whether it bites."""

    value: float
    conditions: tuple[str, ...]
    required_score: str | None
    applicable: bool
    vacuous: bool


@dataclass(frozen=True)
class BoundReport:
    """Everything the theory asserts for one (model, score, step size).

    Values are reported as-is even when vacuous; flags are computed, never
    assumed. `applicable` on an entry means every gating flag holds and the
    report's score kind matches the one the bound was proven for.
    """

    model: TargetModel
    score_kind: str
    eta: float
    dim: int
    beta1: float
    beta2: float
    min_alignment: float
    flags: dict[str, bool]
    rates: dict[str, BoundEntry]
    errors: dict[str, BoundEntry]
    dmaps_lipschitz: float
    dmaps_rejection: float
    dmaps_rate: BoundEntry


def bounds_report(model: TargetModel, score_kind: str, eta: float) -> BoundReport:
    """Evaluate every closed-form rate and error bound with computed flags
    for the model's score of the given kind.

    beta2 here is the non-flipped-coordinate smoothness constant (see
    `smooth_beta_constants`): the contraction and error arguments only ever
    compare score components across states agreeing at that coordinate, and
    the plain sup-norm constant of the gibbs transform would otherwise pick
    up its sign-convention jump and void every small-step precondition,
    constant targets included.
    """
    _k._check_eta(eta)
    field = ScoreField(model, score_kind)
    consts = smooth_beta_constants(field)
    beta1, beta2 = consts.beta1, consts.beta2
    d = model.dim
    signs = all_signs(d).astype(np.float64)
    min_alignment = float((signs * field.table()).min())
    h = math.exp(-2.0 / eta)

    flags = {
        "d_beta2_le_1": d * beta2 <= 1.0,
        "4d_beta2_le_1": 4.0 * d * beta2 <= 1.0,
        "8d_beta2_le_1": 8.0 * d * beta2 <= 1.0,
        "2d_beta2_le_exp_neg_beta1": 2.0 * d * beta2 <= math.exp(-beta1),
        "4d_beta2_exp4beta1_le_1": 4.0 * d * beta2 <= math.exp(-4.0 * beta1),
        "step_le_inv_d": h <= 1.0 / d,
        "alignment_ge_neg_half_inv_eta": min_alignment >= -1.0 / (2.0 * eta),
        "shifted_step_le_inv_d": math.exp(-2.0 / eta - 2.0 * beta1) <= 1.0 / d,
    }

    def entry(value, conditions, required_score, kind):
        applicable = all(flags[c] for c in conditions) and (
            required_score is None or required_score == score_kind)
        vacuous = value > 1.0 if kind == "rate" else value >= d
        return BoundEntry(value, tuple(conditions), required_score, applicable, vacuous)

    rates = {
        "gibbs": entry(gibbs_contraction_bound(d, eta, beta2),
                       ("d_beta2_le_1", "step_le_inv_d"), "glauber", "rate"),
        "dula": entry(dula_contraction_bound(eta, beta1),
                      ("2d_beta2_le_exp_neg_beta1",), None, "rate"),
        "dula_small_step": entry(dula_small_step_contraction_bound(eta),
                                 ("4d_beta2_le_1",), "gibbs", "rate"),
        "dups": entry(dups_contraction_bound(eta),
                      ("4d_beta2_exp4beta1_le_1",), None, "rate"),
        "dups_small_step": entry(dups_small_step_contraction_bound(eta),
                                 ("8d_beta2_le_1", "alignment_ge_neg_half_inv_eta"),
                                 None, "rate"),
    }
    errors = {
        "dula_small_step": entry(dula_stationary_error_bound(d, eta),
                                 ("4d_beta2_le_1", "step_le_inv_d"), "gibbs", "error"),
        "dups_small_step": entry(dups_stationary_error_bound(d, eta),
                                 ("8d_beta2_le_1", "alignment_ge_neg_half_inv_eta"),
                                 "glauber", "error"),
        "dula_static": entry(dula_static_error_bound(d, beta1),
                             ("2d_beta2_le_exp_neg_beta1",), None, "error"),
        "dups_static": entry(dups_static_error_bound(d, beta2),
                             ("4d_beta2_exp4beta1_le_1", "shifted_step_le_inv_d"),
                             None, "error"),
    }
    # epsilon for the adjusted rate comes from the unadjusted proximal margin
    dmaps_rate = entry(
        dmaps_contraction_bound(2.0 * float(expit(-2.0 / eta)), d, eta, beta1, beta2),
        ("4d_beta2_exp4beta1_le_1",), "stein", "rate")
    return BoundReport(
        model=model, score_kind=score_kind, eta=eta, dim=d,
        beta1=beta1, beta2=beta2, min_alignment=min_alignment, flags=flags,
        rates=rates, errors=errors,
        dmaps_lipschitz=dmaps_acceptance_lipschitz(d, eta, beta1, beta2),
        dmaps_rejection=dmaps_rejection_bound(d, eta, beta1, beta2),
        dmaps_rate=dmaps_rate)


# ---------------------------------------------------------------------------
# adjusted-kernel diagnostics


def dmaps_empirical_delta(model: TargetModel, score: ScoreField, eta: float) -> float:
    """Exact worst-case expected rejection mass of the adjusted proximal kernel.

    1 - min over starting states of the summed accepted flux; always in
    [0, 1] since the acceptance is a probability.
    """
    flux = _k._dmaps_flux(model, score, eta)
    return float(1.0 - flux.sum(axis=1).min())


def naive_mh_oracle(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    """Metropolis adjustment of the two-stage kernel with the full-sum ratio.

    The acceptance uses the marginal kernel t(x'|x) summed over all
    auxiliary states, which is exactly what the stagewise rule avoids
    computing; exponential cost keeps this a small-d reference.
    """
    if model.dim > MH_ORACLE_DIM_CAP:
        raise CapabilityError(
            f"full-sum Metropolis reference capped at d <= {MH_ORACLE_DIM_CAP}")
    _k._check_eta(eta)
    # an entry that underflowed to 0 is a move never proposed: log -inf
    with np.errstate(divide="ignore"):
        log_t = np.log(_k.dups_matrix(model, score, eta).probs)
    lw = model.log_weight_signs(all_signs(model.dim).astype(np.float64))
    return _k._with_rejections(_k._metropolis_flux(log_t, lw), eta, "mh_oracle", score.kind)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class CertResult:
    """Outcome of checking one theoretical bound against exact computation."""

    certificate: str
    sampler: str
    score: str | None
    eta: float
    status: str  # "pass" | "fail" | "skip"
    observed: float | None = None
    bound: float | None = None
    reason: str = ""


# absorbs last-ulp float noise in configurations where the inequality is an
# exact equality in real arithmetic (e.g. constant scores); the mathematical
# tolerance is zero
FLOAT_GUARD = 1e-12


# certificate, sampler, bound, observable, dimension cap, in output order; a
# kappa is checked against a rate of the bound report, a stationary W1 against
# an error, the dmaps rejection mass against the dmaps rejection bound
_CERTIFICATE_PLAN = (
    ("gibbs_contraction", "gibbs", "gibbs", "kappa", CONTRACTION_DIM_CAP),
    ("dula_contraction", "dula", "dula", "kappa", CONTRACTION_DIM_CAP),
    ("dula_contraction_small_step", "dula", "dula_small_step", "kappa", CONTRACTION_DIM_CAP),
    ("dups_contraction", "dups", "dups", "kappa", CONTRACTION_DIM_CAP),
    ("dups_contraction_small_step", "dups", "dups_small_step", "kappa", CONTRACTION_DIM_CAP),
    ("dula_stationary_error", "dula", "dula_small_step", "stationary_w1", _k.MAX_MATRIX_DIM),
    ("dups_stationary_error", "dups", "dups_small_step", "stationary_w1", _k.MAX_MATRIX_DIM),
    ("dmaps_acceptance_mass", "dmaps", "dmaps", "rejection", _k.MAX_MATRIX_DIM),
)


def _skip_reason(entry: BoundEntry, report: BoundReport, dim_cap: int) -> str:
    """Why a bound cannot be checked for the report's configuration, or ""."""
    if entry.required_score not in (None, report.score_kind):
        return f"requires the {entry.required_score} score"
    unmet = [c for c in entry.conditions if not report.flags[c]]
    if unmet:
        return "precondition unmet: " + ", ".join(unmet)
    if report.dim > dim_cap:
        return f"dimension {report.dim} above cap {dim_cap}"
    return ""


def run_certificates(model: TargetModel, score_kind: str, eta: float) -> list[CertResult]:
    """Check every bound whose preconditions hold for this configuration.

    Contraction certificates compare the adjacent-pair kappa of the built
    kernel against the closed-form rate; stationary-error certificates
    compare the exact Wasserstein distance of the kernel's stationary law to
    the target against the closed-form error. Bounds gated on a different
    score kind, a failed flag, or a dimension cap are reported as skips
    with the reason. Each kernel and each observable is computed once.
    """
    field = ScoreField(model, score_kind)
    report = bounds_report(model, score_kind, eta)
    target = exact_target(model)
    families = {"kappa": report.rates, "stationary_w1": report.errors,
                "rejection": {"dmaps": BoundEntry(report.dmaps_rejection, (), "stein",
                                                  score_kind == "stein",
                                                  report.dmaps_rejection >= 1.0)}}
    built: dict[str, KernelMatrix] = {}
    observed: dict[tuple[str, str], float] = {}
    results = []
    for name, sampler, bound, observable, dim_cap in _CERTIFICATE_PLAN:
        entry = families[observable][bound]
        reason = _skip_reason(entry, report, dim_cap)
        if reason:
            results.append(CertResult(name, sampler, score_kind, eta, "skip",
                                      bound=entry.value, reason=reason))
            continue
        key = (observable, sampler)
        if key not in observed:
            if observable == "rejection":
                observed[key] = dmaps_empirical_delta(model, field, eta)
            else:
                if sampler not in built:
                    built[sampler] = _k.kernel_matrix(model, sampler, field, eta)
                observed[key] = (contraction_certificate(built[sampler],
                                                         symmetries=model.symmetries()).kappa
                                 if observable == "kappa"
                                 else wasserstein_hamming(stationary(built[sampler]), target))
        ok = observed[key] <= entry.value + FLOAT_GUARD
        results.append(CertResult(name, sampler, score_kind, eta, "pass" if ok else "fail",
                                  observed[key], entry.value))
    return results
