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
from .kernels import KernelMatrix
from .models import TargetModel, exact_target, log_weight_table, permutes_every_coordinate
from .scores import ScoreField, smooth_beta_constants
from .statespace import (adjacent_pairs, all_signs, cube_orbits, flip_neighbors, isometry_images,
                         symmetric_blocks)

# a certificate costs one optimal-transport solve per orbit of hypercube
# edges under the target's declared symmetries: every edge when it declares
# none, about d orbits on the exchangeable models
CONTRACTION_DIM_CAP = 8
# the exponential references, which anchor the fast paths at small d: the
# dense direct stationary solve, the 4^d-entry coupling LP and the full-sum
# Metropolis oracle, which enumerates 2^d auxiliary states per pair
ORACLE_DIM_CAP = 6
# `stationary` eliminates states in blocks of this many, one matrix product each
_GTH_BLOCK = 32
# an entry of the law being rebuilt above this rescales its block, which
# leaves the next entry a factor 1e58 of headroom below the float range
_GTH_RESCALE = 1e250
# detailed-balance residual below which `spectral_summary` treats a kernel
# as reversible
REVERSIBILITY_TOL = 1e-10


def _require_distribution(p: np.ndarray, name: str) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not p.size:
        raise ValueError(f"{name} is empty")
    _k._require_finite(p, name)
    if p.min() < -1e-12:
        raise ValueError(f"{name} has a negative entry: {p.min():.3e}")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} is not normalized: sum = {p.sum()!r}")
    return p


# ---------------------------------------------------------------------------
# stationary distributions


def _gth_law(a: np.ndarray, owner: str, unit: str = "state") -> np.ndarray:
    """Stationary law of the chain whose off-diagonal moves are `a` (its
    diagonal is ignored and `a` is overwritten), by Grassmann-Taksar-Heyman
    state reduction (1985).

    States are eliminated from the top index down, each one's off-diagonal
    moves spread over the states below it in proportion to its outflow
    (the pivot); the law is then rebuilt from state 0 up. Nothing is
    subtracted, so every entry keeps a small relative error however sticky
    or periodic the chain is. A zero pivot means the chain is reducible in
    double precision and raises NumericalError naming `owner`, and the
    `unit` its indices count.

    The rebuilt law is renormalized after each block, and rescaled within
    one whenever an entry passes `_GTH_RESCALE`, so that a law whose masses
    span more than the float range comes back with its lightest entries
    underflowed to 0. An overflow or an invalid operation left over, in
    the elimination or in the rebuild, raises one NumericalError naming
    `owner` and the overflow; underflow is silent.
    """
    n = a.shape[0]
    pi = np.zeros(n)
    pi[0] = 1.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for hi in range(n, 0, -_GTH_BLOCK):
                lo = max(hi - _GTH_BLOCK, 0)
                for k in range(hi - 1, max(lo - 1, 0), -1):
                    pivot = a[k, :k].sum()
                    if not pivot > 0.0:
                        raise NumericalError(
                            f"{owner} is reducible in double precision: {unit} {k} has no "
                            f"path to {unit}s 0..{k - 1}")
                    a[:k, k] /= pivot
                    a[lo:k, :k] += a[lo:k, k, None] * a[k, :k]
                    a[:lo, lo:k] += a[:lo, k, None] * a[k, lo:k]
                a[:lo, :lo] += a[:lo, lo:hi] @ a[lo:hi, :lo]
            for lo in range(0, n, _GTH_BLOCK):
                hi = min(lo + _GTH_BLOCK, n)
                pi[lo:hi] += pi[:lo] @ a[:lo, lo:hi]
                for k in range(max(lo, 1), hi):
                    pi[k] += pi[lo:k] @ a[lo:k, k]
                    if pi[k] > _GTH_RESCALE:
                        pi[:hi] /= pi[k]
                pi[:hi] /= pi[:hi].sum()
    except FloatingPointError as exc:
        raise NumericalError(f"{owner} overflowed in GTH state reduction: {exc}") from exc
    return pi


def stationary(kernel: KernelMatrix) -> np.ndarray:
    """Stationary law by Grassmann-Taksar-Heyman state reduction (see
    `_gth_law`), on the kernel lumped onto the orbits of its `symmetries`.
    A zero pivot, which means the kernel is reducible in double precision,
    or an overflow in the reduction raises NumericalError.

    A kernel that commutes with a group is lumpable onto its orbits
    (Kemeny-Snell): every state of an orbit o sends the same mass
    F[o, o'] = sum_{y in o'} K(x, y) to each orbit o', and its stationary
    law is spread evenly over each orbit. So GTH runs on the r x r chain F,
    a sum of nonnegative terms and as subtraction-free as K itself, and
    pi(x) = law[o(x)] / |o(x)|; with no symmetries F is K.
    """
    orbits = cube_orbits(kernel.dim, kernel.symmetries)
    lumped = orbits.lump(kernel.probs[orbits.reps])
    np.fill_diagonal(lumped, 0.0)
    law = _gth_law(lumped, f"{kernel.sampler} kernel at eta={kernel.eta:g}",
                   "state" if orbits.membership is None else "orbit")
    return (law / orbits.sizes)[orbits.of]


def stationary_direct(kernel: KernelMatrix) -> np.ndarray:
    """Stationary vector by a dense linear solve; cross-check at small d.

    Replaces one row of (t^T - I) with the normalization constraint. The
    solve subtracts, so near-singular systems can lose every digit; a
    non-finite entry or one below -1e-12 raises NumericalError.
    """
    if kernel.dim > ORACLE_DIM_CAP:
        raise CapabilityError(f"direct stationary solve capped at d <= {ORACLE_DIM_CAP}")
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
    all others go through the nonsymmetric one. A kernel whose `symmetries`
    generate every coordinate permutation has its spectrum read off
    floor(d/2) + 1 blocks of side at most d + 1 (`_eigenvalues`), in
    O(d^2 2^d) instead of the O(8^d) of the dense 2^d-square eigensolve
    that every other kernel takes. A unit lambda2 is reported with an
    infinite relaxation time. A reversible kernel whose stationary law
    underflows to 0 somewhere, or an eigensolver that does not converge,
    raises NumericalError; a `pi` that is not a law on the kernel's states,
    ValueError.
    """
    pi = stationary(kernel) if pi is None else np.asarray(pi, dtype=np.float64)
    db = detailed_balance_residual(kernel, pi)
    reversible = db <= REVERSIBILITY_TOL
    if reversible and not pi.min() > 0.0:
        raise NumericalError(f"stationary law underflows to 0 at {np.sum(pi <= 0.0)} "
                             "states, so the symmetrized kernel is undefined")
    mods = np.abs(_eigenvalues(kernel, pi, reversible))
    mods.sort()
    lam2 = min(float(mods[-2]), 1.0)
    t_rel = math.inf if lam2 >= 1.0 - 1e-15 else 1.0 / (1.0 - lam2)
    return SpectralSummary(lam2, t_rel, reversible)


def _eigenvalues(kernel: KernelMatrix, pi: np.ndarray, reversible: bool) -> np.ndarray:
    """Every eigenvalue of the kernel, each as often as its multiplicity.

    A kernel that commutes with S_d maps the span of each block basis
    Phi_j of `statespace.symmetric_blocks` into itself, and Phi_j reads off
    the coefficients at its row states, so its matrix there is
    B_j = K[rows_j] @ Phi_j, and the spectrum is that of every B_j, each
    repeated by its multiplicity. Without S_d, or at d <= 2, where the
    cube has at most 4 states, the one block is K itself.
    A reversible kernel is self-adjoint in L2(pi), whose Gram matrix on the
    block basis is diagonal, r^2 = pi @ Phi_j^2 (pi on the cube), so
    D^{1/2} B D^{-1/2} with D = diag(r^2) is symmetric.
    """
    t = kernel.probs
    if kernel.dim >= 3 and permutes_every_coordinate(kernel.dim, kernel.symmetries):
        blocks = [(t[rows] @ phi, np.sqrt(pi @ phi**2), mult)
                  for phi, rows, mult in symmetric_blocks(kernel.dim)]
    else:
        blocks = [(t, np.sqrt(pi), 1)]
    values = []
    for b, r, mult in blocks:
        if reversible:
            sym = (r[:, None] / r[None, :]) * b
            matrix, eigenvalues = 0.5 * (sym + sym.T), np.linalg.eigvalsh
        else:
            matrix, eigenvalues = b, np.linalg.eigvals
        try:
            values.append(np.repeat(eigenvalues(matrix), mult))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolver failed: {exc}") from exc
    return np.concatenate(values)


# ---------------------------------------------------------------------------
# distances


def _require_laws(p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and q as arrays if both are distributions of one length 2^d, else ValueError."""
    p = _require_distribution(p, "p")
    q = _require_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError("distributions have different lengths")
    n = p.shape[0]
    if n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    return p, q


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance, half the L1 difference, between two
    distributions of one length 2^d (else ValueError)."""
    p, q = _require_laws(p, q)
    return 0.5 * float(np.abs(p - q).sum())


def wasserstein_hamming(p: np.ndarray, q: np.ndarray, symmetries: tuple = ()) -> float:
    """Exact 1-Wasserstein distance under the Hamming metric between two
    distributions of one length 2^d whose masses agree to 1e-10 (else
    ValueError).

    Hamming distance is the graph metric of the hypercube, so W1 is the
    Kantorovich dual max <f, p - q> over potentials f that change by at most
    1 across every edge. Product laws take the closed form sum_i |P_i - Q_i|
    of their coordinate marginals; all other pairs solve the dual (see
    `_transport_values`).

    `symmetries` are cube isometries `(sigma, flip_mask)`, as declared by
    `TargetModel.symmetries`, under which both laws are invariant. The
    average of an optimal potential over the group they generate is feasible
    and has the same value, so the dual runs over one potential per orbit,
    with |f(o) - f(o')| <= 1 for each pair of orbits joined by an edge and
    the orbit masses as supplies; with none, the group is trivial and its
    orbits are the states. Where those orbits join as a path, as the +1
    counts of an exchangeable target do, the dual is the closed form
    sum_k |F_p(k) - F_q(k)| of the cumulative orbit masses and no LP is
    solved. Replacing each law by its orbit average
    p_bar moves W1 by at most (d/2)(|p - p_bar|_1 + |q - q_bar|_1), and
    |p - p_bar|_1 <= 2 sum_x |p(x) - p(rep(x))| for the representative
    rep(x) of each orbit; a pair for which d times the two sums exceeds
    `_ORBIT_TOL` raises NumericalError. Those sums read 0 on laws that are
    invariant bit for bit, which a float orbit average need not.
    """
    p, q = _require_laws(p, q)
    if abs(float((p - q).sum())) > 1e-10:
        raise ValueError("supplies are unbalanced beyond 1e-10")
    d = p.shape[0].bit_length() - 1
    orbits = cube_orbits(d, symmetries)
    rep = orbits.reps[orbits.of]
    moved = d * float(np.abs(p - p[rep]).sum() + np.abs(q - q[rep]).sum())
    if moved > _ORBIT_TOL:
        raise NumericalError(
            f"laws break the declared symmetries: averaging them over the orbits "
            f"could move W1 by {moved:.3e}, beyond {_ORBIT_TOL:.0e}", residual=moved)
    return float(_transport_values(p[None, :], q[None, :], symmetries=symmetries)[0][0])


# supply entries this small are roundoff, not mass to move
_SUPPLY_TOL = 1e-15
# L1 distance from the product of its own marginals below which a row is a
# product law; the closed form is then within d times this of the exact W1
_PRODUCT_TOL = 1e-13
# HiGHS working memory grows with the LP, so one call stacks at most this
# many potentials (one per orbit): 4 cube pairs at d = 6, 1 from d = 8 on
_LP_MAX_VARS = 256
# each LP block's largest supply is scaled to this
_LP_SCALE = 1e6
# how far replacing two laws by their orbit averages may move their W1 before
# `wasserstein_hamming` refuses to solve them on the orbits
_ORBIT_TOL = 1e-13
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
    start = np.zeros(marginals.shape, dtype=bool)
    return np.abs(rows - np.exp(_k._flip_log_kernel(logit(marginals), start))).sum(axis=1)


# one LP per group and batch size that the transport solves meet
@functools.lru_cache(maxsize=128)
def _quotient_lp(d: int, generators: tuple, blocks: int) -> tuple:
    """Constraints +-(f(u) - f(v)) <= 1 on every edge (u, v), for `blocks`
    copies of the graph of the orbits of the d-cube under the group that
    `generators` generate (`statespace.cube_orbits`; the cube itself for
    none), bounds pinning f(0) = 0 in each copy, and last the incidence of
    one copy, +1 at the first end of each edge and -1 at the second."""
    orbits = cube_orbits(d, generators)
    edges, n = orbits.edges, len(orbits.reps)
    e = edges.shape[0]
    incidence = sparse.csr_array(
        (np.tile([1.0, -1.0], e), (np.repeat(np.arange(e), 2), edges.ravel())), shape=(e, n))
    a = sparse.kron(sparse.eye_array(blocks), sparse.vstack([incidence, -incidence]),
                    format="csr")
    bounds = np.full((blocks * n, 2), [-np.inf, np.inf])
    bounds[::n] = 0.0
    return a, np.ones(a.shape[0]), bounds, incidence


def _dual_lp_values(b: np.ndarray, lp: tuple) -> np.ndarray:
    """Kantorovich dual of each row of supplies b, as one block-diagonal LP
    on the graph whose LP `lp` is, with a block per row (as `_quotient_lp`
    gives it; its vertex 0 is pinned).

    The edge constraint matrix is totally unimodular, so HiGHS's optimal
    vertex has integer potentials; they are rounded and the value is
    <round(f), b>, a feasible dual and hence exact to summation roundoff.

    The same call's constraint marginals are the primal side: the flow
    along each edge, from its first end to its second, is the marginal of
    its "-" constraint minus that of its "+" one. The flow must move the
    scaled supplies (its divergence at every vertex but the pinned vertex
    0, which absorbs the supplies' roundoff imbalance) at a cost
    sum_e |flow_e| equal to the scaled dual value; either missing by more
    than `_FLOW_TOL` of the largest scaled supply, or of that value when it
    is larger, raises NumericalError. A feasible flow of that cost is an
    upper bound on W1, so each value is checked from both sides.
    """
    blocks, n = b.shape
    a, ub, bounds, incidence = lp
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
    # a roundoff supply at the pinned vertex alone has dual value 0
    gap = float((np.abs(np.abs(flow).sum(axis=1) - dual) / np.maximum(dual, _LP_SCALE)).max())
    if max(miss, gap) > _FLOW_TOL:
        raise NumericalError(
            f"transport primal flow misses its supplies by {miss:.1e} and the dual "
            f"value by {gap:.1e}, relative, beyond {_FLOW_TOL:.0e}", residual=max(miss, gap))
    return (f_int * b).sum(axis=1)


def _path_values(b: np.ndarray) -> np.ndarray:
    """Kantorovich dual of each row of supplies b on the path graph
    0 - 1 - ... - r-1, whose vertex 0 absorbs the roundoff imbalance as in
    `_dual_lp_values`: sum_k |S_k| over the tail sums
    S_k = b_k + ... + b_{r-1}, k >= 1, which for balanced supplies is the
    sum of the absolute running sums |b_0 + ... + b_{k-1}|.

    The potential that steps by sign(S_k) from vertex k - 1 to k is
    feasible with that value, and the flow -S_k along edge (k - 1, k)
    moves the supplies of vertices 1..r-1 at the same cost; a feasible
    potential and a feasible flow of equal cost are both optimal, so no LP
    is solved.
    """
    return np.abs(np.cumsum(b[:, :0:-1], axis=1)).sum(axis=1)


def _next_bit_conditionals(rows: np.ndarray, j: int) -> np.ndarray:
    """P(x_j = +1 | bits 0..j-1 of x = a) of each row of an (m, 2^d) law at
    [row, a], and 0 where the prefix a has no mass."""
    law = rows.reshape(rows.shape[0], -1, 2, 1 << j).sum(axis=1)
    mass = law.sum(axis=1)
    return np.divide(law[:, 1], mass, out=np.zeros_like(mass), where=mass > 0.0)


def _sequential_coupling_costs(p: np.ndarray, q: np.ndarray, order: int) -> np.ndarray:
    """Expected Hamming cost of the sequential (Knothe-Rosenblatt) coupling
    of each pair of rows of two (m, 2^d) laws, in one `order`: order 0
    takes coordinate 0 first, order 1 coordinate d - 1.

    Coordinate by coordinate, the next bits x_j of p and y_j of q are
    coupled maximally given the coupled prefixes a and b: with
    alpha(a) = p(x_j = +1 | a) and beta(b) = q(y_j = +1 | b), they differ
    with probability |alpha - beta|, and a prefix without mass has
    conditional 0. The joint law of the prefix pairs, (m, 2^j, 2^j) at step
    j, carries the cost sum_j E|alpha - beta|. It is a coupling of the two
    rows, so the cost is an upper bound on their W1 whatever kernel they
    came from, exact at d = 1 and equal to sum_j |P_j - Q_j| on product laws.
    """
    m, n = p.shape
    d = n.bit_length() - 1
    if order:
        # the state map of the isometry that reverses the coordinates
        reversal = isometry_images(d, range(d - 1, -1, -1), 0)
        p, q = p[:, reversal], q[:, reversal]
    cost = np.zeros(m)
    joint = np.ones((m, 1, 1))
    for j in range(d):
        alpha = _next_bit_conditionals(p, j)[:, :, None]
        beta = _next_bit_conditionals(q, j)[:, None, :]
        cost += (joint * np.abs(alpha - beta)).sum(axis=(1, 2))
        if j == d - 1:
            break
        # the prefixes grow by bit j, the high bit of the new prefix index
        both = np.minimum(alpha, beta)
        grown = np.empty((m, 2, 1 << j, 2, 1 << j))
        grown[:, 0, :, 0] = joint * (1.0 - np.maximum(alpha, beta))
        grown[:, 1, :, 0] = joint * (alpha - both)
        grown[:, 0, :, 1] = joint * (beta - both)
        grown[:, 1, :, 1] = joint * both
        joint = grown.reshape(m, 2 << j, 2 << j)
    return cost


def _transport_values(p: np.ndarray, q: np.ndarray, upper: np.ndarray | None = None,
                      symmetries: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
    """Exact Hamming W1 between the rows of two (m, 2^d) arrays, and which
    of them are only bracketed.

    The group that the isometries `symmetries` generate must leave every
    row invariant (the trivial one, for none, leaves any). A pair whose
    supplies p - q vanish (entries up to 1e-15 are zeroed) is exactly 0 and
    a pair of product laws is sum_i |P_i - Q_i|. Of the rest, a pair whose
    supplies summed over each orbit are roundoff is 0. The others take the
    closed form `_path_values` when the orbits' quotient graph is a path
    (`CubeOrbits.path`), and otherwise solve the dual LP on the r orbits
    (`_quotient_lp`), max(1, `_LP_MAX_VARS` // r) pairs to a HiGHS call.

    `upper`, when given, holds an upper bound on each pair's W1. The
    coordinate potential makes L = sum_i |P_i - Q_i| a lower bound on every
    pair's, so no pair whose upper bound is below max L can hold the
    largest value. An LP batch is skipped when every pair in it has
    upper < max L - `_BRACKET_MARGIN`. A batch that `upper` does not skip
    tightens each pair's bound by the ascending sequential coupling of its
    rows (`_sequential_coupling_costs`) and, if still live, by the
    descending one, and is skipped once all its bounds lie below: the
    decision of both orders at once, though a batch that the ascending
    order skips keeps its costs, upper bounds still. A skipped batch's
    pairs take their (tightened) bound, and the returned mask marks them.
    The batches are those of the full solve, so every batch that is solved
    gives the same floats. Without `upper`, or on a path, every pair is
    solved.
    """
    m, n = p.shape
    d = n.bit_length() - 1
    orbits = cube_orbits(d, symmetries)
    b = p - q
    b[np.abs(b) <= _SUPPLY_TOL] = 0.0
    supply = orbits.lump(b)
    supply[np.abs(supply) <= _SUPPLY_TOL] = 0.0
    values = np.zeros(m)
    live = b.any(axis=1)
    plus = (all_signs(d) > 0).astype(np.float64)
    mp, mq = p @ plus, q @ plus
    product = (live & (_product_residual(p, mp) <= _PRODUCT_TOL)
               & (_product_residual(q, mq) <= _PRODUCT_TOL))
    values[product] = np.abs(mp[product] - mq[product]).sum(axis=1)
    bracketed = np.zeros(m, dtype=bool)
    floor = -np.inf if upper is None else np.abs(mp - mq).sum(axis=1).max() - _BRACKET_MARGIN
    rest = np.flatnonzero(live & ~product & supply.any(axis=1))
    if orbits.path:
        values[rest] = _path_values(supply[rest])
        return values, bracketed
    per_call = max(1, _LP_MAX_VARS // len(orbits.reps))
    for start in range(0, rest.size, per_call):
        idx = rest[start:start + per_call]
        if upper is not None:
            bound = upper[idx]
            # the descending coupling only for a batch the ascending one leaves live
            for order in (0, 1):
                if (bound < floor).all():
                    break
                bound = np.minimum(bound, _sequential_coupling_costs(p[idx], q[idx], order))
            if (bound < floor).all():
                values[idx] = bound
                bracketed[idx] = True
                continue
        values[idx] = _dual_lp_values(supply[idx], _quotient_lp(d, orbits.generators, len(idx)))
    return values, bracketed


def wasserstein_hamming_lp(p: np.ndarray, q: np.ndarray) -> float:
    """Reference transport value from the full coupling linear program,
    between two distributions of one length 2^d (else ValueError).

    Enumerates all 4^d coupling entries with marginal equality constraints;
    exponentially large, so it only exists to anchor the transport solver at
    small dimension.
    """
    p, q = _require_laws(p, q)
    n = p.shape[0]
    d = n.bit_length() - 1
    if d > ORACLE_DIM_CAP:
        raise CapabilityError(f"coupling LP capped at d <= {ORACLE_DIM_CAP}")
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
    """max over pairs of |p(x) t(x'|x) - p(x') t(x|x')|, for a distribution p
    with one entry per state of the kernel, else ValueError.

    When p is invariant, bit for bit, under every state map of the kernel's
    `symmetries`, the max runs over the pairs with one state among the
    orbit representatives `reps` of `cube_orbits`, reading only their rows
    and columns of the kernel: a pair (g x, g x') has the same residual as
    (x, x') to within how closely the kernel commutes with g, which its
    construction checked. Otherwise every pair is read.
    """
    p = _require_distribution(p, "p")
    t = kernel.probs
    if p.shape[0] != t.shape[0]:
        raise ValueError(f"p has {p.shape[0]} entries for a kernel on {t.shape[0]} states")
    orbits = cube_orbits(kernel.dim, kernel.symmetries)
    invariant = (len(orbits.reps) < len(p)
                 and all(np.array_equal(p[img], p) for img in orbits.images))
    rows = orbits.reps if invariant else slice(None)
    residual = p[rows, None] * t[rows]
    residual -= (p[:, None] * t[:, rows]).T
    return float(np.abs(residual, out=residual).max())


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
    the kernel's symmetries; with no symmetries every entry is its own
    index.

    `bracketed[j]` marks a pair whose W1 was bracketed, not solved: its
    upper bound, the one given for its edge or, if smaller, the cost of the
    sequential coupling of its two rows, lies more than a margin below the
    largest coordinate lower bound of any pair, so it cannot be kappa or
    the witness, and `pair_values[j]` holds that bound instead of the exact
    W1. Without upper bounds no pair is bracketed.
    """

    kappa: float
    witness: tuple[int, int]
    pairs: np.ndarray
    pair_values: np.ndarray
    solved_on: np.ndarray
    bracketed: np.ndarray


def contraction_certificate(kernel: KernelMatrix, *,
                            upper: np.ndarray | None = None) -> ContractionCertificate:
    """Worst adjacent-pair W1 of a kernel, from one transport solve per orbit
    of hypercube edges.

    Each of the kernel's `symmetries` maps every edge to one with the same
    W1, so only the lowest-index edge of each orbit (`edge_of` of
    `statespace.cube_orbits`) is solved and its value copied to the rest;
    with none, every edge is its own orbit. The group does not fix the rows
    of an edge, so their LPs run on the cube.

    `upper`, an upper bound on the W1 of every edge in the order of
    `pairs` (as `_coupling_upper_bounds` gives it), brackets the orbits as
    `_transport_values` describes, and the pairs it decides are marked in
    `bracketed`. An entry below its edge's coordinate lower bound
    sum_i |P_i - Q_i| by more than `_BRACKET_MARGIN` raises ValueError
    naming the edge, before any solve. Kappa and the witness are the same
    floats as with `upper=None`, which solves every orbit and is the oracle.
    """
    d = kernel.dim
    skip = dimension_skip("kappa", d)
    if skip:
        raise CapabilityError(f"contraction certificate: {skip}")
    t = kernel.probs
    pairs = adjacent_pairs(d)
    if upper is not None:
        upper = np.asarray(upper, dtype=np.float64)
        if upper.shape != (pairs.shape[0],):
            raise ValueError(f"upper has shape {upper.shape}, expected "
                             f"({pairs.shape[0]},), one per edge")
        _k._require_finite(upper, "upper")
        marginals = t @ (all_signs(d) > 0).astype(np.float64)
        lower = np.abs(marginals[pairs[:, 0]] - marginals[pairs[:, 1]]).sum(axis=1)
        below = np.flatnonzero(upper < lower - _BRACKET_MARGIN)
        if below.size:
            e = below[0]
            raise ValueError(
                f"upper bound {float(upper[e])!r} on edge ({pairs[e, 0]}, {pairs[e, 1]}) is "
                f"below its coordinate lower bound {float(lower[e])!r} by more than "
                f"{_BRACKET_MARGIN:.0e}")
    solved_on = cube_orbits(d, kernel.symmetries).edge_of
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
    q[k ^ 2^i], from states k and k ^ 2^i, at [k, i]: sum_j |P_j - Q_j| of
    their +1 marginals, P_j = q_j where x_j = -1 and 1 - q_j where x_j = +1,
    the closed form `_transport_values` gives product rows."""
    marginals = np.where(all_signs(q.shape[1]) > 0, 1.0 - q, q)
    return np.abs(marginals[:, None] - marginals[flip_neighbors(q.shape[1])]).sum(axis=2)


def _coupling_upper_bounds(model: TargetModel, kernel: KernelMatrix) -> np.ndarray:
    """An upper bound on the W1 between the rows of every edge (x, x^i) of
    `kernel` on `model`, in the order of `adjacent_pairs`, from a coupling
    of the sampler: the synchronous one below for dups, and for every other
    sampler the Hamming diameter d, which any coupling meets.
    `_transport_values` tightens each bound that leaves its LP batch live
    with the sequential coupling of the two rows themselves.

    dups: stage one moves both chains by the same flips off coordinate i
    and couples coordinate i maximally, so with probability 2a, where
    a = sigma(-2/eta) is its flip probability, both reach the same z and
    stay together; otherwise they reach z and z^i, with z distributed as
    T1(x, .) given z_i = x_i. Stage two is a product law m(z) and is coupled
    coordinatewise, so
    U = (1 - 2a) sum_z T1(x, z) sum_j |m_j(z) - m_j(z^i)|
    (the inner sum is the same at z and z^i, so the sum over all z is the
    conditional one). The flip probabilities are read from the same
    `kernels._stage_logits` and stage-one kernel that build the kernel, and
    1 - 2a is `dups_contraction_bound`, so U is a coupling's cost for the
    kernel's own law, up to roundoff of order 1e-15, far below
    `_BRACKET_MARGIN`.
    """
    d = kernel.dim
    pairs = adjacent_pairs(d)
    if kernel.sampler != "dups":
        return np.full(pairs.shape[0], float(d))
    field = ScoreField(model, kernel.score)
    t1 = np.exp(_k._stage_one_log_kernel(d, kernel.eta))
    edge_w1 = dups_contraction_bound(kernel.eta) * (
        t1 @ _adjacent_product_w1(expit(_k._stage_logits(field, kernel.eta, 2.0))))
    return edge_w1[pairs[:, 0], np.repeat(np.arange(d), 1 << (d - 1))]


def _sampler_certificate(model: TargetModel, kernel: KernelMatrix) -> ContractionCertificate:
    """The contraction certificate of a sampler's kernel on `model`, on the
    orbits of the kernel's symmetries, bracketed by its coupling bounds
    (`_coupling_upper_bounds`, tightened batch by batch by the sequential
    couplings of the rows): the one path that `cli.analyze_row` and
    `run_certificates` take to kappa."""
    return contraction_certificate(kernel, upper=_coupling_upper_bounds(model, kernel))


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


# a row of the claim table: the bound column, whose name less its `rate_` or
# `err_` prefix keys it in `BoundReport.rates` or `.errors`; the observable it
# bounds, None for a constant; the gating flags and score; the bound as a
# function of (d, eta, beta1, beta2); and the `check` certificate (name, sampler)
_Claim = namedtuple("_Claim", "column observable conditions score bound certificate")

# a value says nothing past these: rate > 1, error >= the diameter d, rejection >= 1
_VACUOUS = {"kappa": lambda v, d: v > 1.0, "stationary_w1": lambda v, d: v >= d,
            "rejection": lambda v, d: v >= 1.0, None: lambda v, d: False}

# the claims, in the order of the bound columns and of the `check` rows; a
# claim without a certificate is only reported
_CLAIMS = (
    _Claim("rate_gibbs", "kappa", ("d_beta2_le_1", "step_le_inv_d"), "glauber",
           lambda d, eta, b1, b2: gibbs_contraction_bound(d, eta, b2),
           ("gibbs_contraction", "gibbs")),
    _Claim("rate_dula", "kappa", ("2d_beta2_le_exp_neg_beta1",), None,
           lambda d, eta, b1, b2: dula_contraction_bound(eta, b1),
           ("dula_contraction", "dula")),
    _Claim("rate_dula_small_step", "kappa", ("4d_beta2_le_1",), "gibbs",
           lambda d, eta, b1, b2: dula_small_step_contraction_bound(eta),
           ("dula_contraction_small_step", "dula")),
    _Claim("rate_dups", "kappa", ("4d_beta2_exp4beta1_le_1",), None,
           lambda d, eta, b1, b2: dups_contraction_bound(eta),
           ("dups_contraction", "dups")),
    _Claim("rate_dups_small_step", "kappa",
           ("8d_beta2_le_1", "alignment_ge_neg_half_inv_eta"), None,
           lambda d, eta, b1, b2: dups_small_step_contraction_bound(eta),
           ("dups_contraction_small_step", "dups")),
    _Claim("err_dula_small_step", "stationary_w1", ("4d_beta2_le_1", "step_le_inv_d"), "gibbs",
           lambda d, eta, b1, b2: dula_stationary_error_bound(d, eta),
           ("dula_stationary_error", "dula")),
    _Claim("err_dups_small_step", "stationary_w1",
           ("8d_beta2_le_1", "alignment_ge_neg_half_inv_eta"), "glauber",
           lambda d, eta, b1, b2: dups_stationary_error_bound(d, eta),
           ("dups_stationary_error", "dups")),
    _Claim("err_dula_static", "stationary_w1", ("2d_beta2_le_exp_neg_beta1",), None,
           lambda d, eta, b1, b2: dula_static_error_bound(d, b1), None),
    _Claim("err_dups_static", "stationary_w1",
           ("4d_beta2_exp4beta1_le_1", "shifted_step_le_inv_d"), None,
           lambda d, eta, b1, b2: dups_static_error_bound(d, b2), None),
    _Claim("dmaps_lipschitz", None, (), None, dmaps_acceptance_lipschitz, None),
    _Claim("dmaps_rejection", "rejection", (), "stein", dmaps_rejection_bound,
           ("dmaps_acceptance_mass", "dmaps")),
    # epsilon for the adjusted rate comes from the unadjusted proximal margin
    _Claim("dmaps_rate", "kappa", ("4d_beta2_exp4beta1_le_1",), "stein",
           lambda d, eta, b1, b2: dmaps_contraction_bound(2.0 * float(expit(-2.0 / eta)),
                                                          d, eta, b1, b2), None),
)


@dataclass(frozen=True)
class BoundEntry:
    """One evaluated bound: raw value, why it does not apply, and whether
    it bites. `reason` is "" when the claim applies, else "requires the X
    score" when it was proven for another score kind, else "precondition
    unmet: a, b", naming the gating flags that fail."""

    value: float
    reason: str
    vacuous: bool

    @property
    def applicable(self) -> bool:
        return not self.reason


@dataclass(frozen=True)
class BoundReport:
    """Everything the theory asserts for one (model, score, step size).

    Values are reported as-is even when vacuous; flags are computed, never
    assumed. An entry applies (its `reason` is empty) when the report's
    score kind is the one the bound was proven for and every gating flag
    holds. `entries` holds every bound column's entry in CSV order; `rates`
    and `errors` hold those of the `rate_` and `err_` columns, keyed by the
    column name less that prefix.
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
    min_alignment = float(field.tilt().min())
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
        unmet = ", ".join(f for f in c.conditions if not flags[f])
        reason = (f"requires the {c.score} score" if c.score not in (None, score_kind)
                  else f"precondition unmet: {unmet}" if unmet else "")
        entries[c.column] = BoundEntry(value, reason, _VACUOUS[c.observable](value, d))
    return BoundReport(
        model=model, score_kind=score_kind, eta=eta, dim=d,
        beta1=beta1, beta2=beta2, min_alignment=min_alignment, flags=flags, entries=entries,
        rates={c.removeprefix("rate_"): e for c, e in entries.items() if c.startswith("rate_")},
        errors={c.removeprefix("err_"): e for c, e in entries.items() if c.startswith("err_")})


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
    if model.dim > ORACLE_DIM_CAP:
        raise CapabilityError(f"full-sum Metropolis reference capped at d <= {ORACLE_DIM_CAP}")
    _k._check_eta(eta)
    # an entry that underflowed to 0 is a move never proposed: log -inf
    with np.errstate(divide="ignore"):
        log_t = np.log(_k.dups_matrix(model, score, eta).probs)
    lw = log_weight_table(model)
    flux = _k._fold_rejections(_k._metropolis_flux(log_t, lw), np.arange(len(lw)))
    return KernelMatrix(flux, eta, "mh_oracle", score.kind)


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


def dimension_skip(observable: str, dim: int) -> str:
    """Why `observable` is not computed at dimension `dim`, "" when it is:
    kappa stops at `CONTRACTION_DIM_CAP`, the others at the dense cap."""
    cap = CONTRACTION_DIM_CAP if observable == "kappa" else _k.MAX_MATRIX_DIM
    return f"dimension {dim} above cap {cap}" if dim > cap else ""


def run_certificates(model: TargetModel, score_kind: str, eta: float) -> list[CertResult]:
    """Check every claim of the table that names a certificate, in table order.

    Contraction certificates compare the adjacent-pair kappa of the built
    kernel against the closed-form rate; stationary-error certificates
    compare the exact Wasserstein distance of the kernel's stationary law to
    the target against the closed-form error. A claim whose bound entry does
    not apply, or whose observable is above its cap (`dimension_skip`), is
    reported as a skip with the entry's reason or the cap. Each kernel and
    each observable is computed once, the stationary law and its W1 on the
    orbits of the kernel's symmetries.
    """
    field = ScoreField(model, score_kind)
    report = bounds_report(model, score_kind, eta)
    target = exact_target(model)
    kernel_of = functools.cache(lambda sampler: _k.kernel_matrix(model, sampler, field, eta))
    observed: dict[tuple[str, str], float] = {}
    results = []
    for claim in (c for c in _CLAIMS if c.certificate):
        (name, sampler), observable = claim.certificate, claim.observable
        entry = report.entries[claim.column]
        reason = entry.reason or dimension_skip(observable, report.dim)
        if reason:
            results.append(CertResult(name, sampler, score_kind, eta, "skip",
                                      bound=entry.value, reason=reason))
            continue
        key = (observable, sampler)
        if key not in observed:
            if observable == "rejection":
                observed[key] = dmaps_empirical_delta(model, field, eta)
            else:
                kernel = kernel_of(sampler)
                observed[key] = (_sampler_certificate(model, kernel).kappa
                                 if observable == "kappa"
                                 else wasserstein_hamming(stationary(kernel), target,
                                                          kernel.symmetries))
        ok = observed[key] <= entry.value + FLOAT_GUARD
        results.append(CertResult(name, sampler, score_kind, eta, "pass" if ok else "fail",
                                  observed[key], entry.value))
    return results
