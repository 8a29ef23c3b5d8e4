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
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.special import expit, logit

from . import kernels as _k
from .errors import CapabilityError, NumericalError
from .kernels import SYMMETRY_TOL, KernelMatrix
from .models import TargetModel, exact_target
from .scores import ScoreField, smooth_beta_constants
from .statespace import all_signs, isometry_images, orbit_minima

# a certificate costs one optimal-transport solve per orbit of hypercube
# edges under the target's declared symmetries: every edge when it declares
# none, about d orbits on the exchangeable models
CONTRACTION_DIM_CAP = 8
# the full-sum Metropolis reference enumerates 2^d auxiliary states per pair
MH_ORACLE_DIM_CAP = 6
DIRECT_SOLVE_DIM_CAP = 6
# `stationary` eliminates states in blocks of this many, one matrix product each
_GTH_BLOCK = 32
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
    """Stationary law by Grassmann-Taksar-Heyman state reduction (1985).

    States are eliminated from the top index down, each one's off-diagonal
    moves spread over the states below it in proportion to its outflow
    (the pivot); the law is then rebuilt from state 0 up. Nothing is
    subtracted, so every entry keeps a small relative error however sticky
    or periodic the kernel is. A zero pivot means the kernel is reducible
    in double precision and raises NumericalError.
    """
    a = np.array(kernel.probs, dtype=np.float64)
    np.fill_diagonal(a, 0.0)
    n = a.shape[0]
    for hi in range(n, 0, -_GTH_BLOCK):
        lo = max(hi - _GTH_BLOCK, 0)
        for k in range(hi - 1, max(lo - 1, 0), -1):
            pivot = a[k, :k].sum()
            if not pivot > 0.0:
                raise NumericalError(
                    f"{kernel.sampler} kernel at eta={kernel.eta:g} is reducible in "
                    f"double precision: state {k} has no path to states 0..{k - 1}")
            a[:k, k] /= pivot
            a[lo:k, :k] += a[lo:k, k, None] * a[k, :k]
            a[:lo, lo:k] += a[:lo, k, None] * a[k, lo:k]
        a[:lo, :lo] += a[:lo, lo:hi] @ a[lo:hi, :lo]
    pi = np.zeros(n)
    pi[0] = 1.0
    for lo in range(0, n, _GTH_BLOCK):
        hi = min(lo + _GTH_BLOCK, n)
        pi[lo:hi] += pi[:lo] @ a[:lo, lo:hi]
        for k in range(max(lo, 1), hi):
            pi[k] += pi[lo:k] @ a[lo:k, k]
        pi[:hi] /= pi[:hi].sum()  # keeps the unnormalized law in range
    if not np.isfinite(pi).all():
        raise NumericalError("stationary law overflowed in GTH back-substitution")
    return pi


def stationary_direct(kernel: KernelMatrix) -> np.ndarray:
    """Stationary vector by a dense linear solve; cross-check at small d.

    Replaces one row of (t^T - I) with the normalization constraint. The
    solve subtracts, so near-singular systems can lose every digit; a
    non-finite entry or one below -1e-12 raises NumericalError.
    """
    if kernel.dim > DIRECT_SOLVE_DIM_CAP:
        raise CapabilityError(
            f"direct stationary solve capped at d <= {DIRECT_SOLVE_DIM_CAP}")
    n = kernel.probs.shape[0]
    a = kernel.probs.T - np.eye(n)
    a[-1, :] = 1.0
    pi = np.linalg.solve(a, np.eye(n)[-1])
    pi /= pi.sum()
    if not np.isfinite(pi).all() or pi.min() < -1e-12:
        raise NumericalError(f"direct stationary solve lost precision: min {pi.min():.3e}")
    return pi


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
    reported with an infinite relaxation time. A reversible kernel whose
    stationary law underflows to 0 somewhere, or an eigensolver that does
    not converge, raises NumericalError.
    """
    t = kernel.probs
    if pi is None:
        pi = stationary(kernel)
    db = detailed_balance_residual(kernel, pi)
    reversible = db <= REVERSIBILITY_TOL
    if reversible and not pi.min() > 0.0:
        raise NumericalError(f"stationary law underflows to 0 at {np.sum(pi <= 0.0)} "
                             "states, so the symmetrized kernel is undefined")
    if reversible:
        root = np.sqrt(pi)
        sym = (root[:, None] / root[None, :]) * t
        matrix, eigenvalues = 0.5 * (sym + sym.T), np.linalg.eigvalsh
    else:
        matrix, eigenvalues = t, np.linalg.eigvals
    try:
        mods = np.abs(eigenvalues(matrix))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
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
    return float(_transport_values(p[None, :], q[None, :])[0][0])


# supply entries this small are roundoff, not mass to move
_SUPPLY_TOL = 1e-15
# L1 distance from the product of its own marginals below which a row is a
# product law; the closed form is then within d times this of the exact W1
_PRODUCT_TOL = 1e-13
# HiGHS working memory grows with the LP, so one call stacks at most this
# many potentials: 4 pairs at d = 6, one pair from d = 8 on
_LP_MAX_VARS = 256
# each LP block's largest supply is scaled to this
_LP_SCALE = 1e6
# relative miss of an LP's primal flow, on its supplies or on its dual value,
# beyond which the solve is not trusted; HiGHS's own optimal vertices read
# ~1e-15
_FLOW_TOL = 1e-9
# how far below the largest lower bound every upper bound of an LP batch must
# lie for the batch to be skipped: far above the roundoff of either bound, and
# above the 1e-12 tie tolerance of a certificate's witness
_BRACKET_MARGIN = 1e-9


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
    each copy; last, the (edges, states) incidence of one cube, +1 at each
    edge's lower state and -1 at its upper one."""
    n = 1 << d
    edges = _adjacent_pairs(d)
    e = edges.shape[0]
    incidence = sparse.csr_array(
        (np.tile([1.0, -1.0], e), (np.repeat(np.arange(e), 2), edges.ravel())), shape=(e, n))
    a = sparse.kron(sparse.eye_array(blocks), sparse.vstack([incidence, -incidence]),
                    format="csr")
    bounds = np.full((blocks * n, 2), [-np.inf, np.inf])
    bounds[::n] = 0.0
    return a, np.ones(a.shape[0]), bounds, incidence


def _dual_lp_values(b: np.ndarray) -> np.ndarray:
    """Kantorovich dual of each row of supplies b, as one block-diagonal LP.

    The edge constraint matrix is totally unimodular, so HiGHS's optimal
    vertex has integer potentials; they are rounded and the value is
    <round(f), b>, a feasible dual and hence exact to summation roundoff.

    The same call's constraint marginals are the primal side: the flow
    along each edge, from its lower state to its upper one, is the
    marginal of its "-" constraint minus that of its "+" one. The flow
    must move the scaled supplies (its divergence at every state but the
    pinned state 0, which absorbs the supplies' roundoff imbalance) at a
    cost sum_e |flow_e| equal to the scaled dual value; either missing by
    more than `_FLOW_TOL` of the largest scaled supply, or of that value,
    raises NumericalError. A feasible flow of that cost is an upper bound
    on W1, so each value is checked from both sides.
    """
    blocks, n = b.shape
    a, ub, bounds, incidence = _edge_lp(n.bit_length() - 1, blocks)
    # the dual feasibility tolerance is absolute: scaling each block's largest
    # supply to _LP_SCALE puts it at 1e-16 of that supply
    supply = _LP_SCALE * b / np.abs(b).max(axis=1, keepdims=True)
    res = linprog(-supply.ravel(), A_ub=a, b_ub=ub, bounds=bounds, method="highs-ds",
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
    marginals = res.ineqlin.marginals.reshape(blocks, 2, -1)
    flow = marginals[:, 1] - marginals[:, 0]
    div = (incidence.T @ flow.T).T
    miss = float(np.abs(div - supply)[:, 1:].max()) / _LP_SCALE
    dual = (f_int * supply).sum(axis=1)
    gap = float((np.abs(np.abs(flow).sum(axis=1) - dual) / dual).max())
    if max(miss, gap) > _FLOW_TOL:
        raise NumericalError(
            f"transport primal flow misses its supplies by {miss:.1e} and the dual "
            f"value by {gap:.1e}, relative, beyond {_FLOW_TOL:.0e}", residual=max(miss, gap))
    return (f_int * b).sum(axis=1)


def _transport_values(p: np.ndarray, q: np.ndarray,
                      upper: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact Hamming W1 between the rows of two (m, 2^d) arrays, and which
    of them are only bracketed.

    Each pair takes one of three paths: a pair whose supplies p - q vanish
    (entries up to 1e-15 are zeroed) is exactly 0; a pair of product laws
    is sum_i |P_i - Q_i|; every other pair goes to the dual LP, several
    pairs to a HiGHS call.

    `upper`, when given, holds an upper bound on each pair's W1. The
    coordinate potential makes L = sum_i |P_i - Q_i| a lower bound on every
    pair's, so no pair whose upper bound is below max L can hold the
    largest value. An LP batch is skipped when every pair in it has
    upper < max L - `_BRACKET_MARGIN`; its pairs take their upper bound,
    and the returned mask marks them. The batches are those of the full
    solve, so every batch that is solved gives the same floats.
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
    bracketed = np.zeros(m, dtype=bool)
    floor = -np.inf if upper is None else np.abs(mp - mq).sum(axis=1).max() - _BRACKET_MARGIN
    rest = np.flatnonzero(live & ~product)
    per_call = max(1, _LP_MAX_VARS >> d)
    for start in range(0, rest.size, per_call):
        idx = rest[start:start + per_call]
        if (upper is not None) and (upper[idx] < floor).all():
            values[idx] = upper[idx]
            bracketed[idx] = True
        else:
            values[idx] = _dual_lp_values(b[idx])
    return values, bracketed


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
    # default solver tolerances (1e-7) are too loose for a 1e-9 reference;
    # HiGHS presolve calls some couplings of rows with entries near 1e-16
    # infeasible, so it is off
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10, "presolve": False})
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
    by the triangle inequality along a flip path.
    `solved_on[j]` is the index of the pair whose transport solve gave
    `pair_values[j]`: j itself, or the lowest-index pair of its orbit under
    the declared symmetries; with no symmetries every entry is its own
    index.

    `bracketed[j]` marks a pair whose W1 was bracketed, not solved: its
    coupling upper bound lies more than a margin below the largest
    coordinate lower bound of any pair, so it cannot be kappa or the
    witness, and `pair_values[j]` holds that upper bound instead of the
    exact W1. Without upper bounds no pair is bracketed.
    """

    kappa: float
    witness: tuple[int, int]
    pairs: np.ndarray
    pair_values: np.ndarray
    solved_on: np.ndarray
    bracketed: np.ndarray


def _checked_isometry(t: np.ndarray, sigma, flip_mask: int) -> np.ndarray:
    """Image g(k) of every state word under the isometry (sigma, flip_mask),
    after checking that the kernel t commutes with it: t[g(x), g(y)] = t[x, y]."""
    img = isometry_images(t.shape[0].bit_length() - 1, sigma, flip_mask)
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
    maps = []
    for img in images:
        a, b = img[pairs[:, 0]], img[pairs[:, 1]]
        j = np.bitwise_count((a ^ b) - 1).astype(np.int64)  # the coordinate it flips
        lo = np.minimum(a, b)
        # rank of lo among the words with bit j clear
        maps.append((j << (d - 1)) | (lo & ((1 << j) - 1)) | ((lo >> (j + 1)) << j))
    return orbit_minima(pairs.shape[0], maps)


def contraction_certificate(kernel: KernelMatrix, symmetries: tuple = (),
                            upper: np.ndarray | None = None) -> ContractionCertificate:
    """Worst adjacent-pair W1 of a kernel, from one transport solve per orbit
    of hypercube edges.

    `symmetries` are cube isometries `(sigma, flip_mask)`, as declared by
    `TargetModel.symmetries`. Each is first checked on the kernel itself,
    and one it breaks by more than `SYMMETRY_TOL` raises NumericalError
    before any solve. A symmetry maps every edge to one with the same W1,
    so only the lowest-index edge of each orbit is solved, all in one
    batch, and its value is copied to the rest of the orbit; with none,
    every edge is its own orbit.

    `upper`, an upper bound on the W1 of every edge in the order of
    `pairs` (as `_coupling_upper_bounds` gives it), brackets the orbits:
    an LP batch whose every orbit has its bound below the largest
    coordinate lower bound sum_i |P_i - Q_i| of any orbit, by a margin, is
    not solved, and its pairs are marked in `bracketed` and report their
    upper bound (see `_transport_values`). The batches are those of the
    full solve, so kappa and the witness are the same floats as with
    `upper=None`, which solves every orbit and is the oracle.
    """
    d = kernel.dim
    if d > CONTRACTION_DIM_CAP:
        raise CapabilityError(
            f"contraction certificates capped at d <= {CONTRACTION_DIM_CAP}, got {d}")
    t = kernel.probs
    pairs = _adjacent_pairs(d)
    if upper is not None:
        upper = np.asarray(upper, dtype=np.float64)
        if upper.shape != (pairs.shape[0],):
            raise ValueError(f"upper has shape {upper.shape}, expected "
                             f"({pairs.shape[0]},), one per edge")
        _k._require_finite(upper, "upper")
    solved_on = _edge_orbits(d, [_checked_isometry(t, sigma, mask) for sigma, mask in symmetries])
    reps = np.flatnonzero(solved_on == np.arange(pairs.shape[0]))
    values, bracketed = _transport_values(t[pairs[reps, 0]], t[pairs[reps, 1]],
                                          None if upper is None else upper[reps])
    of_rep = np.searchsorted(reps, solved_on)
    values, bracketed = values[of_rep], bracketed[of_rep]
    kappa = float(values.max())
    # pairs that tie in real arithmetic differ in the last ulps; the lowest
    # index among them is a witness that noise cannot move
    top = int(np.argmax(values >= kappa - 1e-12 * max(1.0, kappa)))
    return ContractionCertificate(kappa, (int(pairs[top, 0]), int(pairs[top, 1])),
                                  pairs, values, solved_on, bracketed)


def _adjacent_product_w1(q: np.ndarray) -> np.ndarray:
    """W1 between the laws of independent flips with probabilities q[k] and
    q[k ^ 2^i], from states k and k ^ 2^i, at [k, i]: the two laws of
    coordinate j != i differ by |q_j(k) - q_j(k ^ 2^i)|, those of
    coordinate i, which starts on opposite sides, by
    |1 - q_i(k) - q_i(k ^ 2^i)|."""
    n, d = q.shape
    ks = np.arange(n)
    out = np.empty((n, d))
    for i in range(d):
        there = q[ks ^ (1 << i)]
        gaps = np.abs(q - there)
        gaps[:, i] = np.abs(1.0 - q[:, i] - there[:, i])
        out[:, i] = gaps.sum(axis=1)
    return out


def _coupling_upper_bounds(model: TargetModel, kernel: KernelMatrix) -> np.ndarray | None:
    """An upper bound on the W1 between the rows of every edge (x, x^i) of a
    dups, dmala or dmaps kernel on `model`, in the order of
    `_adjacent_pairs`, from a coupling of the sampler; None for the other
    samplers (gibbs, prox, and dula, whose rows are product laws).

    * dups: stage one moves both chains by the same flips off coordinate i
      and couples coordinate i maximally, so with probability 2a, where
      a = sigma(-2/eta) is its flip probability, both reach the same z and
      stay together; otherwise they reach z and z^i, with z distributed as
      T1(x, .) given z_i = x_i. Stage two is a product law m(z) and is
      coupled coordinatewise, so
      U = (1 - 2a) sum_z T1(x, z) sum_j |m_j(z) - m_j(z^i)|
      (the inner sum is the same at z and z^i, so the sum over all z is the
      conditional one).
    * dmala, dmaps: K moves off x only where its base kernel does (dula,
      dups), never more, and sends the rest back to x. Moving that
      rejected mass back costs r(x) = sum_{y != x} (K_base - K)(x, y)
      ham(x, y), so by the triangle inequality
      U = W1_base(x, x^i) + r(x) + r(x^i), with the exact product-law W1
      for dula and the bound above for dups.

    Every bound is the cost of a coupling, so it holds in real arithmetic;
    in floating point it carries roundoff of order 1e-15, far below
    `_BRACKET_MARGIN`.
    """
    sampler, eta = kernel.sampler, kernel.eta
    if sampler not in ("dups", "dmala", "dmaps"):
        return None
    field = ScoreField(model, kernel.score)
    d = kernel.dim
    tilt = all_signs(d) * field.table()
    if sampler == "dmala":
        edge_w1 = _adjacent_product_w1(expit(-2.0 / eta - tilt))
    else:
        t1 = np.exp(_k._stage_one_log_kernel(d, eta))
        edge_w1 = ((1.0 - 2.0 * float(expit(-2.0 / eta)))
                   * (t1 @ _adjacent_product_w1(expit(-2.0 / eta - 2.0 * tilt))))
    pairs = _adjacent_pairs(d)
    upper = edge_w1[pairs[:, 0], np.repeat(np.arange(d), 1 << (d - 1))]
    if sampler == "dups":
        return upper
    base = (_k.dula_matrix if sampler == "dmala" else _k.dups_matrix)(model, field, eta)
    ks = np.arange(1 << d)
    ham = np.bitwise_count(ks[:, None] ^ ks[None, :])
    rejected = ((base.probs - kernel.probs) * ham).sum(axis=1)
    return upper + rejected[pairs[:, 0]] + rejected[pairs[:, 1]]


def _sampler_certificate(model: TargetModel, kernel: KernelMatrix) -> ContractionCertificate:
    """The contraction certificate of a sampler's kernel on `model`, on the
    orbits of the model's symmetries, with the orbits that its coupling
    bounds decide left unsolved: the one path that `cli.analyze_row` and
    `run_certificates` take to kappa."""
    return contraction_certificate(kernel, symmetries=model.symmetries(),
                                   upper=_coupling_upper_bounds(model, kernel))


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


# a row of the claim table: the bound column; its key in `BoundReport.rates`
# (kappa) or `.errors` (stationary W1); the observable it bounds, None for a
# constant; the gating flags and score; the bound as a function of (d, eta,
# beta1, beta2); and the `check` certificate (name, sampler, dimension cap)
_Claim = namedtuple("_Claim", "column key observable conditions score bound certificate")

# a value says nothing past these: rate > 1, error >= the diameter d, rejection >= 1
_VACUOUS = {"kappa": lambda v, d: v > 1.0, "stationary_w1": lambda v, d: v >= d,
            "rejection": lambda v, d: v >= 1.0, None: lambda v, d: False}

# the claims, in the order of the bound columns and of the `check` rows; a
# claim without a certificate is only reported
_CLAIMS = (
    _Claim("rate_gibbs", "gibbs", "kappa", ("d_beta2_le_1", "step_le_inv_d"), "glauber",
           lambda d, eta, b1, b2: gibbs_contraction_bound(d, eta, b2),
           ("gibbs_contraction", "gibbs", CONTRACTION_DIM_CAP)),
    _Claim("rate_dula", "dula", "kappa", ("2d_beta2_le_exp_neg_beta1",), None,
           lambda d, eta, b1, b2: dula_contraction_bound(eta, b1),
           ("dula_contraction", "dula", CONTRACTION_DIM_CAP)),
    _Claim("rate_dula_small_step", "dula_small_step", "kappa", ("4d_beta2_le_1",), "gibbs",
           lambda d, eta, b1, b2: dula_small_step_contraction_bound(eta),
           ("dula_contraction_small_step", "dula", CONTRACTION_DIM_CAP)),
    _Claim("rate_dups", "dups", "kappa", ("4d_beta2_exp4beta1_le_1",), None,
           lambda d, eta, b1, b2: dups_contraction_bound(eta),
           ("dups_contraction", "dups", CONTRACTION_DIM_CAP)),
    _Claim("rate_dups_small_step", "dups_small_step", "kappa",
           ("8d_beta2_le_1", "alignment_ge_neg_half_inv_eta"), None,
           lambda d, eta, b1, b2: dups_small_step_contraction_bound(eta),
           ("dups_contraction_small_step", "dups", CONTRACTION_DIM_CAP)),
    _Claim("err_dula_small_step", "dula_small_step", "stationary_w1",
           ("4d_beta2_le_1", "step_le_inv_d"), "gibbs",
           lambda d, eta, b1, b2: dula_stationary_error_bound(d, eta),
           ("dula_stationary_error", "dula", _k.MAX_MATRIX_DIM)),
    _Claim("err_dups_small_step", "dups_small_step", "stationary_w1",
           ("8d_beta2_le_1", "alignment_ge_neg_half_inv_eta"), "glauber",
           lambda d, eta, b1, b2: dups_stationary_error_bound(d, eta),
           ("dups_stationary_error", "dups", _k.MAX_MATRIX_DIM)),
    _Claim("err_dula_static", "dula_static", "stationary_w1", ("2d_beta2_le_exp_neg_beta1",),
           None, lambda d, eta, b1, b2: dula_static_error_bound(d, b1), None),
    _Claim("err_dups_static", "dups_static", "stationary_w1",
           ("4d_beta2_exp4beta1_le_1", "shifted_step_le_inv_d"), None,
           lambda d, eta, b1, b2: dups_static_error_bound(d, b2), None),
    _Claim("dmaps_lipschitz", None, None, (), None, dmaps_acceptance_lipschitz, None),
    _Claim("dmaps_rejection", None, "rejection", (), "stein", dmaps_rejection_bound,
           ("dmaps_acceptance_mass", "dmaps", _k.MAX_MATRIX_DIM)),
    # epsilon for the adjusted rate comes from the unadjusted proximal margin
    _Claim("dmaps_rate", None, "kappa", ("4d_beta2_exp4beta1_le_1",), "stein",
           lambda d, eta, b1, b2: dmaps_contraction_bound(2.0 * float(expit(-2.0 / eta)),
                                                          d, eta, b1, b2), None),
)


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
    report's score kind matches the one the bound was proven for. `entries`
    holds every bound column's entry in CSV order, `rates` and `errors` some
    of them under short keys.
    """

    model: TargetModel
    score_kind: str
    eta: float
    dim: int
    beta1: float
    beta2: float
    min_alignment: float
    flags: dict[str, bool]
    entries: dict[str, BoundEntry]
    rates: dict[str, BoundEntry]
    errors: dict[str, BoundEntry]
    dmaps_lipschitz: float


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
    entries = {}
    for c in _CLAIMS:
        value = c.bound(d, eta, beta1, beta2)
        entries[c.column] = BoundEntry(
            value, c.conditions, c.score,
            all(flags[f] for f in c.conditions) and c.score in (None, score_kind),
            _VACUOUS[c.observable](value, d))
    return BoundReport(
        model=model, score_kind=score_kind, eta=eta, dim=d,
        beta1=beta1, beta2=beta2, min_alignment=min_alignment, flags=flags, entries=entries,
        rates={c.key: entries[c.column] for c in _CLAIMS if c.key and c.observable == "kappa"},
        errors={c.key: entries[c.column] for c in _CLAIMS if c.observable == "stationary_w1"},
        dmaps_lipschitz=dmaps_acceptance_lipschitz(d, eta, beta1, beta2))


# ---------------------------------------------------------------------------
# adjusted-kernel diagnostics


def dmaps_empirical_delta(model: TargetModel, score: ScoreField, eta: float) -> float:
    """Exact worst-case expected rejection mass of the adjusted proximal kernel.

    1 - min over starting states of the summed accepted flux; always in
    [0, 1] since the acceptance is a probability.
    """
    # row sums are constant on an orbit of the target's symmetries
    _, rows, _ = _k._dmaps_orbit_flux(model, score, eta)
    return float(1.0 - rows.sum(axis=1).min())


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
    """Check every claim of the table that names a certificate, in table order.

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
    built: dict[str, KernelMatrix] = {}
    observed: dict[tuple[str, str], float] = {}
    results = []
    for claim in (c for c in _CLAIMS if c.certificate):
        (name, sampler, dim_cap), observable = claim.certificate, claim.observable
        entry = report.entries[claim.column]
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
                observed[key] = (_sampler_certificate(model, built[sampler]).kappa
                                 if observable == "kappa"
                                 else wasserstein_hamming(stationary(built[sampler]), target))
        ok = observed[key] <= entry.value + FLOAT_GUARD
        results.append(CertResult(name, sampler, score_kind, eta, "pass" if ok else "fail",
                                  observed[key], entry.value))
    return results
