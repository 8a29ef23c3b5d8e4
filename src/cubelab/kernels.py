"""The five samplers as batched transitions and exact dense matrices.

Samplers
--------
* gibbs: damped single-flip resampling. With step h = exp(-2/eta), the
  chain flips coordinate i with probability h * sigma(-2 x_i g(x)_i) where
  g is the glauber score, and otherwise stays put. The matrix is literally
  I + h Q for the single-flip generator Q, which requires h <= 1/d so the
  stay probability is nonnegative.
* dula: every coordinate flips independently with probability
  sigma(-2/eta - x_i s(x)_i); the row is a product of two-point laws.
* dmala: a dula proposal followed by a Metropolis accept/reject against
  the target, with the proposal ratio evaluated coordinatewise in O(d).
* dups: two half-steps through an auxiliary state z. Stage one flips each
  coordinate with probability sigma(-2/eta) regardless of the target;
  stage two flips each coordinate of z with probability
  sigma(-2/eta - 2 z_i s(z)_i).
* dmaps: the dups stages followed by the stagewise Metropolis rule
  A_z(x'|x) = min{1, p(x')/p(x) * exp((x - x')^T s(z))}; rejected moves
  stay at x. The dense matrix sums over all 2^d auxiliary states exactly.

`prox_exact_matrix` is the score-free two-stage kernel whose second stage
draws from the target tilted toward z; it is reversible for the target and
serves as the small-step reference for dups.

Each sampler's step is written once, as a method of `Stepper` that moves a
whole batch of states on pre-drawn uniforms; the `*_step` functions run it
on a single state. `kernel_matrix` is the one place that maps a sampler name
to its dense builder.

Every dense law of independent flips is summed in log-odds form by
`_flip_log_kernel`, never from the log of a flip probability, so the kernels
stay finite for every eta > 0, also where exp(-2/eta) underflows or a flip
probability rounds to 1. dmala and dmaps share one rejected-mass fold.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from .errors import CapabilityError, NumericalError, ParameterError
from .models import TargetModel
from .scores import ScoreField
from .statespace import (BitState, all_signs, isometry_images, orbit_minima,
                         pack_words)

# dense kernels hold 4^d doubles: d = 12 is ~134 MB and the practical top
MAX_MATRIX_DIM = 12
# largest entrywise |K[g][:, g] - K| a declared symmetry g may leave on a
# kernel, and the largest change it may make to the log weights or the tilt
# table, relative to their largest magnitude when that exceeds 1; kernels
# built from invariant targets stay within 1e-14
SYMMETRY_TOL = 1e-13

# largest dimension whose chains step against a level table, so a level
# state is one 64-bit word. Per block, a level step's Python work grows with
# the coordinates that its uniforms screen (gibbs walks up to d of them),
# where a +-1 step is a fixed count of numpy calls, and the table costs
# O(d^2) closed-form work to build. 1-chain runs of every sampler ran faster
# on level tables up to d = 64 at eta 0.4-8; at d = 96-128 and eta >= 2,
# dula ran slower than on +-1 vectors (measured: CHANGES.md)
LEVEL_DIM_CAP = 64

# samplers with a step; prox exists as a dense matrix only
STEP_SAMPLERS = ("gibbs", "dula", "dmala", "dups", "dmaps")
SAMPLER_IDS = STEP_SAMPLERS + ("prox",)
# samplers built from the target alone, with no score field
SCORE_FREE = ("gibbs", "prox")


def _require_finite(a: np.ndarray, name: str) -> None:
    """Raise ValueError naming the first NaN or infinite entry of `a`, which
    every later comparison with it would silently pass."""
    bad = np.argwhere(~np.isfinite(a))
    if len(bad):
        at = tuple(int(i) for i in bad[0])
        raise ValueError(f"{name} has a non-finite entry {a[at]} at index "
                         f"{at[0] if a.ndim == 1 else at}")


@dataclass(frozen=True)
class KernelMatrix:
    """Dense row-stochastic one-step law of a sampler at one step size."""

    probs: np.ndarray
    eta: float
    sampler: str
    score: str | None = None

    def __post_init__(self):
        p = self.probs
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("kernel matrix must be square")
        _require_finite(p, "kernel")
        if p.min() < -1e-12:
            raise ValueError(f"kernel has a negative entry: {p.min()}")
        err = np.abs(p.sum(axis=1) - 1.0).max()
        if err > 1e-12:
            raise ValueError(f"kernel rows sum to 1 only within {err:.3e}")
        p.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.probs.shape[0].bit_length() - 1


@dataclass(frozen=True)
class GeneratorMatrix:
    """Dense rate matrix: nonnegative single-flip rates, zero row sums."""

    rates: np.ndarray

    def __post_init__(self):
        q = self.rates
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("generator matrix must be square")
        _require_finite(q, "generator")
        scale = max(1.0, float(np.abs(q).max()))
        if np.abs(q.sum(axis=1)).max() > 1e-12 * scale * q.shape[0]:
            raise ValueError("generator rows must sum to zero")
        q.setflags(write=False)


@dataclass(frozen=True)
class StepOutcome:
    """Result of one sampler step.

    `proposal` is the pre-adjustment move (equal to `next` for unadjusted
    samplers, whose `accepted` flag is always True); `auxiliary` carries the
    intermediate state of two-stage kernels.
    """

    next: BitState
    accepted: bool
    proposal: BitState
    auxiliary: BitState | None = None


def _check_eta(eta: float) -> None:
    if not (eta > 0.0) or not math.isfinite(eta):
        raise ParameterError(f"step size must be positive and finite, got {eta}")


def _check_matrix_dim(dim: int) -> None:
    if dim > MAX_MATRIX_DIM:
        raise CapabilityError(f"dense kernels capped at d <= {MAX_MATRIX_DIM}, got {dim}")


def _check_state(model: TargetModel, x: BitState) -> None:
    if x.dim != model.dim:
        raise ValueError(f"state dimension {x.dim} != model dimension {model.dim}")


def _flip_log_probs(logit: np.ndarray) -> np.ndarray:
    """Log-probability of every flip pattern, for rows of per-coordinate log-odds.

    logit[k, i] is the log-odds that coordinate i flips; entry (k, j) of the
    result sums log sigma(logit[k, i]) over the set bits i of pattern j and
    log sigma(-logit[k, i]) over the rest, so no flip probability is ever
    rounded to 0 or 1 before its log is taken.
    """
    flip, stay = log_expit(logit), log_expit(-logit)
    out = np.zeros((logit.shape[0], 1))
    for i in range(logit.shape[1]):
        # bit i is the most significant so far: its 0-half comes first
        out = np.concatenate([out + stay[:, i:i + 1], out + flip[:, i:i + 1]], axis=1)
    return out


def _flip_log_kernel(logit: np.ndarray) -> np.ndarray:
    """Dense log kernel of independent flips: entry (k, j) is the log-probability
    of the pattern k ^ j under row k of `logit`, or under its only row when
    the rates are the same at every state."""
    ks = np.arange(1 << logit.shape[1])
    patterns = ks[:, None] ^ ks[None, :]
    f = _flip_log_probs(logit)
    return f[0][patterns] if len(f) == 1 else f[ks[:, None], patterns]


def _metropolis_flux(log_t: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """Accepted flux min{t(x'|x), t(x|x') w(x') / w(x)} of the proposal with
    log kernel `log_t` against the target with log weights `lw`."""
    return np.exp(np.minimum(log_t, log_t.T + (lw[None, :] - lw[:, None])))


def _fold_rejections(flux: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Add the rejected mass 1 - sum of each row of `flux` to its entry in
    column `diag`: the row's own state."""
    flux[np.arange(len(diag)), diag] += 1.0 - flux.sum(axis=1)
    return flux


def _with_rejections(flux: np.ndarray, eta: float, sampler: str,
                     score: str | None) -> KernelMatrix:
    """The kernel with accepted flux `flux` and the rejected mass of each row
    on its diagonal."""
    return KernelMatrix(_fold_rejections(flux, np.arange(flux.shape[0])), eta, sampler, score)


def _single_flip_matrix(rates: np.ndarray) -> np.ndarray:
    """Off-diagonal rates on hypercube edges, diagonal balancing rows to zero."""
    n, d = rates.shape
    ks = np.arange(n)
    q = np.zeros((n, n))
    for i in range(d):
        q[ks, ks ^ (1 << i)] = rates[:, i]
    q[ks, ks] = -q.sum(axis=1)
    return q


# ---------------------------------------------------------------------------
# generators


def glauber_generator(model: TargetModel) -> GeneratorMatrix:
    """Single-flip rate matrix with rates sigma(-2 x_i g(x)_i)."""
    _check_matrix_dim(model.dim)
    tab = ScoreField(model, "glauber").table()
    signs = all_signs(model.dim).astype(np.float64)
    return GeneratorMatrix(_single_flip_matrix(expit(-2.0 * signs * tab)))


def dula_generator(score: ScoreField) -> GeneratorMatrix:
    """Single-flip rate matrix with rates exp(-x_i s(x)_i)."""
    _check_matrix_dim(score.model.dim)
    signs = all_signs(score.model.dim).astype(np.float64)
    return GeneratorMatrix(_single_flip_matrix(np.exp(-signs * score.table())))


def dups_generator(score: ScoreField) -> GeneratorMatrix:
    """Single-flip rate matrix with rates 1 + exp(-2 x_i s(x)_i)."""
    _check_matrix_dim(score.model.dim)
    signs = all_signs(score.model.dim).astype(np.float64)
    return GeneratorMatrix(_single_flip_matrix(1.0 + np.exp(-2.0 * signs * score.table())))


# ---------------------------------------------------------------------------
# damped single-flip resampling


def _gibbs_step_size(model: TargetModel, eta: float) -> float:
    _check_eta(eta)
    h = math.exp(-2.0 / eta)
    if h > 1.0 / model.dim:
        raise ParameterError(
            f"gibbs requires exp(-2/eta) <= 1/d: exp(-2/{eta}) = {h:.6g} > 1/{model.dim}")
    return h


def gibbs_step(model: TargetModel, x: BitState, eta: float,
               rng: np.random.Generator) -> StepOutcome:
    """One damped resampling step: flip at most one coordinate."""
    return _step_once(model, "gibbs", None, x, eta, rng)


def gibbs_matrix(model: TargetModel, eta: float) -> KernelMatrix:
    """The damped single-flip kernel, built literally as I + h Q."""
    _check_matrix_dim(model.dim)
    h = _gibbs_step_size(model, eta)
    q = glauber_generator(model).rates
    return KernelMatrix(np.eye(q.shape[0]) + h * q, eta, "gibbs")


# ---------------------------------------------------------------------------
# independent-flip sampler and its Metropolis adjustment


def _score_log_kernel(score: ScoreField, eta: float, scale: float) -> np.ndarray:
    """Log kernel flipping coordinate i of x with log-odds -2/eta - scale x_i s(x)_i."""
    signs = all_signs(score.model.dim).astype(np.float64)
    return _flip_log_kernel(-2.0 / eta - scale * signs * score.table())


def dula_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
              rng: np.random.Generator) -> StepOutcome:
    """Flip every coordinate independently, tilted by the score."""
    return _step_once(model, "dula", score, x, eta, rng)


def dula_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    return KernelMatrix(np.exp(_score_log_kernel(score, eta, 1.0)), eta, "dula", score.kind)


def dmala_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
               rng: np.random.Generator) -> StepOutcome:
    """Independent-flip proposal, Metropolis-corrected toward the target.

    The acceptance ratio uses the factorized proposal, so one step costs
    O(d) score and log-weight evaluations, never a sum over states.
    """
    return _step_once(model, "dmala", score, x, eta, rng)


def dmala_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    lw = model.log_weight_signs(all_signs(model.dim).astype(np.float64))
    return _with_rejections(_metropolis_flux(_score_log_kernel(score, eta, 1.0), lw), eta,
                            "dmala", score.kind)


# ---------------------------------------------------------------------------
# two-stage proximal samplers


def _stage_one_log_kernel(dim: int, eta: float) -> np.ndarray:
    """Log kernel flipping every coordinate with log-odds -2/eta, whatever the target."""
    return _flip_log_kernel(np.full((1, dim), -2.0 / eta))


def dups_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
              rng: np.random.Generator) -> StepOutcome:
    """Both half-steps of the unadjusted proximal sampler."""
    return _step_once(model, "dups", score, x, eta, rng)


def dups_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    stage1 = np.exp(_stage_one_log_kernel(model.dim, eta))
    stage2 = np.exp(_score_log_kernel(score, eta, 2.0))
    return KernelMatrix(stage1 @ stage2, eta, "dups", score.kind)


def dmaps_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
               rng: np.random.Generator) -> StepOutcome:
    """The dups stages plus the stagewise Metropolis accept/reject."""
    return _step_once(model, "dmaps", score, x, eta, rng)


# a z whose phi_z spans more than this keeps the exp-of-differences form: past
# it u_z = exp(phi_z - max phi_z) nears the subnormals and 1 / u_z overflows
_PHI_SPAN = 700.0
# bytes of one row tile of the dmaps flux and of its buffer (L2-sized)
_FLUX_TILE_BYTES = 1 << 18


def _target_isometries(model: TargetModel, lw: np.ndarray, tilt: np.ndarray) -> list:
    """State images of the model's declared symmetries, after checking that
    each g leaves the log weights invariant, lw[g x] = lw[x], and the tilt
    table x_i s(x)_i equivariant, tilt[g x, sigma[i]] = tilt[x, i]. Raises
    NumericalError naming the first generator that breaks either."""
    images = []
    for sigma, mask in model.symmetries():
        img = isometry_images(model.dim, sigma, mask)
        for name, a, moved in (("log weights", lw, lw[img]),
                               ("tilt table", tilt, tilt[np.ix_(img, list(sigma))])):
            dev = float(np.abs(moved - a).max())
            if dev > SYMMETRY_TOL * max(1.0, float(np.abs(a).max())):
                raise NumericalError(
                    f"{model!r} breaks the declared symmetry (sigma={tuple(sigma)}, "
                    f"flip_mask={mask:#x}) on its {name} by {dev:.3e}", residual=dev)
        images.append(img)
    return images


def _permute_orbits(reps: np.ndarray, rows: np.ndarray, images: list) -> np.ndarray:
    """The n x n array whose row reps[j] is rows[j] and whose every other row
    is a permutation of its orbit representative's: a[g x, y] = a[x, g^-1 y]
    for each state map g in `images` or its inverse, filled outward from the
    representatives. So a[g x, g y] = a[x, y] holds up to how closely each
    representative's row is invariant under the maps that fix it: exactly
    in real arithmetic, to the roundoff of its sum in floating point."""
    n = rows.shape[1]
    if len(reps) == n:
        return rows
    out = np.empty((n, n))
    out[reps] = rows
    done = np.zeros(n, dtype=bool)
    done[reps] = True
    inverses = [np.argsort(img) for img in images]
    maps, back = np.array(images + inverses), np.array(inverses + images)
    frontier = reps
    while frontier.size:
        # each state first reached in this round takes the first map reaching it
        reach = maps[:, frontier]
        k, j = np.nonzero(~done[reach])
        dst, first = np.unique(reach[k, j], return_index=True)
        out[dst] = out[frontier[j[first], None], back[k[first]]]
        done[dst] = True
        frontier = dst
    return out


def _dmaps_orbit_flux(model: TargetModel, score: ScoreField,
                      eta: float) -> tuple[np.ndarray, np.ndarray, list]:
    """Accepted flux of the adjusted two-stage kernel on the lowest state of
    each orbit of the target's symmetries, before the rejected mass is folded
    onto the diagonal: `(reps, rows, images)`, where rows[j] is the flux row
    of state reps[j] and `images` the state maps of the declared generators.

    flux(x, x') = sum_z T1(x, z) T2(z, x') A_z(x'|x), where the acceptance
    factorizes through phi_z(y) = log w(y) - y^T s(z):
    A_z(x'|x) = min{1, exp(phi_z(x') - phi_z(x))}. With
    u_z = exp(phi_z - max phi_z) this is min{u_z(x'), u_z(x)} / u_z(x), so a
    z adds (T1(., z) / u_z)[:, None] * min.outer(u_z, u_z) * T2(z, .)[None, :]
    and needs no exponential over pairs. A z whose phi_z spans more than
    `_PHI_SPAN` would underflow u_z and make 0 * inf; it keeps the form
    exp(min(phi_z(x') - phi_z(x), 0)).

    An isometry g under which the log weights are invariant and the tilt
    table x_i s(x)_i is equivariant maps each z-term to the g z term, so
    flux(g x, g x') = flux(x, x'). Every declared generator is checked on
    lw and the tilt table first (`_target_isometries`, NumericalError when
    one breaks either), and the z-loop then runs over the r orbit
    representatives only: O(r 4^d) time, every state being its own
    representative when the target declares no symmetry. The memory is
    three 2^d x 2^d arrays (T2, u and T1), the r x 2^d rows and T1 / u at
    them, and one buffer of `_FLUX_TILE_BYTES`: the z loop runs over one
    tile of rows at a time, so that the tile and the buffer stay in cache.
    """
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    n = 1 << model.dim
    signs = all_signs(model.dim).astype(np.float64)
    lw = model.log_weight_signs(signs)
    tab = score.table()
    images = _target_isometries(model, lw, signs * tab)
    reps = np.flatnonzero(orbit_minima(n, images) == np.arange(n))
    stage2 = np.exp(_score_log_kernel(score, eta, 2.0))
    # phi[z, y] = phi_z(y) - max phi_z, then u in place
    phi = tab @ signs.T
    np.subtract(lw, phi, out=phi)
    phi -= phi.max(axis=1, keepdims=True)
    factored = phi.min(axis=1) >= -_PHI_SPAN
    u = np.exp(phi, out=phi)
    # T1 is symmetric, so row z holds T1(., z); factored rows become T1(., z) / u_z
    col = np.exp(_stage_one_log_kernel(model.dim, eta))
    u_at = u
    if len(reps) < n:
        col, u_at = col[:, reps], u[:, reps]
    np.divide(col, u_at, out=col, where=factored[:, None])
    rows = max(1, _FLUX_TILE_BYTES // (8 * n))
    flux = np.zeros((len(reps), n))
    buf = np.empty((min(rows, len(reps)), n))
    for r in range(0, len(reps), rows):
        tile = flux[r:r + rows]
        b = buf[:len(tile)]
        at = reps[r:r + rows]
        for z, fast in enumerate(factored.tolist()):
            if fast:
                np.minimum.outer(u_at[z, r:r + rows], u[z], out=b)
            else:
                phi_z = lw - signs @ tab[z]
                np.exp(np.minimum(phi_z[None, :] - phi_z[at, None], 0.0), out=b)
            b *= col[z, r:r + rows, None]
            b *= stage2[z]
            tile += b
    return reps, flux, images


def dmaps_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    """Exact adjusted two-stage kernel, summed over all auxiliary states.

    Rejected mass lands on the diagonal. The flux comes from
    `_dmaps_orbit_flux`: O(r 4^d) time for r orbits of states under the
    target's declared symmetries (r = 2^d with none), which are checked on
    the log weights and the tilt table first, with no exponential over pairs
    of states for any z whose phi_z spans at most `_PHI_SPAN`, and the
    memory of a few dense kernels. The rejected mass is folded on the
    representative rows before they are permuted, so every row, diagonal
    included, is an exact permutation of its representative's.
    """
    reps, rows, images = _dmaps_orbit_flux(model, score, eta)
    probs = _permute_orbits(reps, _fold_rejections(rows, reps), images)
    return KernelMatrix(probs, eta, "dmaps", score.kind)


def prox_exact_matrix(model: TargetModel, eta: float) -> KernelMatrix:
    """The exact two-stage kernel whose second stage is target-tilted.

    Stage two draws x' with probability proportional to
    w(x') exp(z^T x' / eta), normalized per auxiliary state over all 2^d
    states, which is what caps the dimension.
    """
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    lw = model.log_weight_signs(all_signs(model.dim).astype(np.float64))
    log_t1 = _stage_one_log_kernel(model.dim, eta)
    # z^T x' / eta = -2 hamming(z, x') / eta up to a constant, and so is log T1(z, x')
    log_v = lw[None, :] + log_t1
    log_v -= log_v.max(axis=1, keepdims=True)
    v = np.exp(log_v)
    v /= v.sum(axis=1, keepdims=True)
    return KernelMatrix(np.exp(log_t1) @ v, eta, "prox")


def kernel_matrix(model: TargetModel, sampler: str, score: ScoreField | None,
                  eta: float) -> KernelMatrix:
    """The dense kernel of any sampler in `SAMPLER_IDS`.

    `score` is required for the samplers outside `SCORE_FREE` and ignored
    by the two inside it.
    """
    if sampler == "gibbs":
        return gibbs_matrix(model, eta)
    if sampler == "prox":
        return prox_exact_matrix(model, eta)
    # looked up per call, so that a builder replaced at run time (by a tracer
    # or a test) is the one called
    builders = {"dula": dula_matrix, "dmala": dmala_matrix, "dups": dups_matrix,
                "dmaps": dmaps_matrix}
    if sampler not in builders:
        raise ParameterError(f"unknown sampler {sampler!r}, expected one of {SAMPLER_IDS}")
    if score is None:
        raise ParameterError(f"sampler {sampler!r} needs a score field")
    return builders[sampler](model, score, eta)


# ---------------------------------------------------------------------------
# batched steps


class Stepper:
    """One sampler's transition, on a batch of states or on a single state.

    A step reads m = `uniforms_per_step` uniforms on [0, 1), fixed per
    sampler: gibbs 1, dula d, dmala d + 1, dups 2d, dmaps 2d + 1. The state
    representation is fixed at construction:

    * `tables=False`: states are float arrays of +-1 coordinates, shaped
      (..., d), and every per-state quantity comes from the model's closed
      forms, at any dimension.
    * `tables=True`: states are packed int64 words of any batch shape, and
      every per-state quantity is read from a table over all 2^d states.
    * `tables=True, scalar=True`: one state, a Python int word, whose table
      row is a tuple of Python lists and floats; a step makes no numpy
      call. Stepping a few chains one at a time this way is faster than one
      batched step over all of them.
    * `tables=False, scalar=True`: one state, a Python int word, of an
      exchangeable target (`TargetModel.exchangeable`) with d at most
      `LEVEL_DIM_CAP`. Every feature then depends only on x_i and on the
      state's +1 count, so `__init__` evaluates the closed forms once, on
      the d + 1 states "first k coordinates +1", and checks them on "last
      k coordinates +1" (`NumericalError` if any value differs). A step
      reads row `x.bit_count()` of that level table and makes no numpy
      call. The features equal the closed forms bit for bit, except
      dmala's per-state base, a sum whose order differs by a few ulps.

    In the batched representations a step reads a `(..., m)` block of
    uniforms whose leading shape broadcasts with the states', so one state
    with n rows of uniforms makes n draws. Each step is one method, written
    once against primitives that `__init__` binds per representation: the
    flips where `u < q` (a mask, or in scalar form a packed word), gibbs's
    pick from a cumulative row, flipping a state by a packed word or by
    those flips, the two Metropolis dot products and the accept step, which
    selects the next states and carry. The flips, the pick and the dot
    products also take the state their features belong to, which only the
    level primitives read: they split the flips by the sign they leave.
    The scalar table dot products add the terms of the flipped coordinates
    in ascending order, which is how `np.vecdot` sums vectors this short,
    so both table representations give the same floats; the level dot
    products are a count times a level difference per sign.

    `prepare(u)` turns a block of uniforms into step operands, doing the
    path-independent work (stage-one flips, logs of acceptance uniforms) for
    the whole block at once; a scalar stepper takes an `(n, m)` block and
    hands out Python lists of n per-step operands. `step(states, *operands,
    carry=None)` returns `(next, accepted, proposal, auxiliary, carry)`.

    The carry holds what the Metropolis-adjusted samplers already know about
    the next states: dmala's features and dmaps's log weight, taken from the
    proposal where it was accepted and from the current state elsewhere.
    Passing it back into the next step lets vector mode evaluate each
    proposal's closed forms once and never re-evaluate the current state's;
    without it (a one-shot step) they are evaluated afresh, to the same
    floats. The invariant: a vector step's carry equals, bit for bit, what
    `_at` (dmala) or `_log_weight` (dmaps) gives on the returned states. In
    table mode re-reading a row with one take measured no slower than
    carrying it, so the table carry is None, as is the level carry.

    A vector step is bound by its count of small numpy calls, not by
    arithmetic, so the accept primitive skips the select when every chain
    accepted: the proposals and their features are then the next states and
    carry as they stand. `ok.all()` also serves a one-shot step, whose `ok`
    is a 0-d `np.bool_`.
    """

    def __init__(self, model: TargetModel, sampler: str, score: ScoreField | None,
                 eta: float, tables: bool, scalar: bool = False):
        if sampler not in STEP_SAMPLERS:
            raise ParameterError(
                f"sampler {sampler!r} has no step, expected one of {STEP_SAMPLERS}")
        _check_eta(eta)
        d = model.dim
        if sampler == "gibbs":
            self.h = _gibbs_step_size(model, eta)
            score = ScoreField(model, "glauber")
        elif score is None:
            raise ParameterError(f"sampler {sampler!r} needs a score field")
        self.uniforms_per_step = {"gibbs": 1, "dula": d, "dmala": d + 1,
                                  "dups": 2 * d, "dmaps": 2 * d + 1}[sampler]
        self.sampler = sampler
        self.dim = d
        self.eta = eta
        self.model = model
        self.step = getattr(self, "_" + sampler)
        features = getattr(self, f"_{sampler}_features")
        if scalar and not tables:
            self._bind_levels(score)
            return
        if not tables:
            self._bind_arrays()
            self._at = lambda x: features(x, score.signs(x))
            self._log_weight = model.log_weight_signs
            self._flip = self._move = lambda x, flips: np.where(flips, -x, x)
            self._stage_one = lambda flips: (flips, flips.astype(np.float64))
            self._select = select = lambda ok, new, old: np.where(ok[..., None], new, old)

            def accept(ok, new, old, there, here):
                # every chain accepted: the proposals and their features are
                # the next states and carry as they stand, with no select
                if ok.all():
                    return new, there
                # per-state arrays shaped like ok (log weights) or like the states
                return select(ok, new, old), tuple(
                    np.where(ok if a.ndim == ok.ndim else ok[..., None], a, b)
                    for a, b in zip(there, here))

            self._accept = accept
            return
        signs = all_signs(d).astype(np.float64)
        table_features = features(signs, score.table())
        log_weight = model.log_weight_signs(signs)
        pow2 = np.int64(1) << np.arange(d, dtype=np.int64)
        self._flip = operator.xor
        if scalar:
            self._bind_scalar(table_features, log_weight, pow2)
            return
        self._bind_arrays()
        # every feature of a state sits in one table row, read by a single take
        self._table = np.hstack([f.reshape(len(signs), -1) for f in table_features])
        widths = [f[0].size for f in table_features]
        starts = np.cumsum([0] + widths)
        self._columns = [slice(a, a + w) if f.ndim == 2 else a
                         for f, a, w in zip(table_features, starts, widths)]
        self._at = self._table_row
        self._log_weight = log_weight.__getitem__
        self._move = lambda x, flips: x ^ (flips @ pow2)
        self._stage_one = lambda flips: (flips @ pow2, flips.astype(np.float64))
        self._accept = lambda ok, new, old, there, here: (np.where(ok, new, old), None)

    def _bind_arrays(self) -> None:
        """The primitives both batched representations share."""
        self._list = self._uniforms = lambda a: a
        self._flips = lambda u, q, x: u < q
        self._pick = lambda cum, u, x: (below := cum <= u)[..., :-1] ^ below[..., 1:]
        self._flip_dot = lambda flips, a, b, x: np.vecdot(flips, a - b)
        self._move_dot = lambda plus, minus, values, z: np.vecdot(plus - minus, values)

    def _bind_scalar(self, features: tuple, log_weight: np.ndarray,
                     pow2: np.ndarray) -> None:
        """Primitives on one Python int word; flips are packed words too."""
        d = self.dim
        bits = [1 << i for i in range(d)]
        # members[w]: the coordinates set in word w, ascending
        members = [[]]
        for i in range(d):
            members += [m + [i] for m in members]
        # gibbs flips coordinate k - 1 where k cumulative entries are <= u
        picks = [0, *bits, 0]
        # no state flips coordinate i where u_i >= its largest flip probability
        # (every row but gibbs's leads with the flip probabilities), so a
        # step compares only the candidates a whole block screens for at once
        top = features[0].max(axis=0)

        def flips(u, q, x):
            candidates, row = u
            word = 0
            for i in members[candidates]:
                if row[i] < q[i]:
                    word |= bits[i]
            return word

        # the state operand is unused: a table row is the state's own
        def flip_dot(flips, a, b, x=None):
            total = 0.0
            for i in members[flips]:
                total += a[i] - b[i]
            return total

        def move_dot(plus, minus, values, z=None):
            total = 0.0
            for i in members[plus ^ minus]:
                total += values[i] if plus >> i & 1 else -values[i]
            return total

        self._at = list(zip(*(f.tolist() for f in features))).__getitem__
        self._log_weight = log_weight.tolist().__getitem__
        self._list = np.ndarray.tolist
        self._uniforms = lambda u: list(zip(((u < top) @ pow2).tolist(), u.tolist()))
        self._flips = flips
        self._pick = lambda cum, u, x: picks[bisect_right(cum, u[0])]
        self._move = operator.xor
        self._stage_one = lambda flips: (words := (flips @ pow2).tolist(), words)
        self._flip_dot = flip_dot
        self._move_dot = move_dot
        self._accept = lambda ok, new, old, there, here: (new if ok else old, None)

    def _bind_levels(self, score: ScoreField) -> None:
        """Primitives on one Python int word, against a table of the d + 1
        levels (+1 counts) of an exchangeable target.

        A level's row holds a (plus, minus) pair for each per-coordinate
        feature, the values at the coordinates that are +1 and -1 there,
        and the per-state features as floats; a step reads the row of its
        state's bit count. A step's flips are two lookups, one per sign,
        among its uniforms sorted once per block. Each Metropolis dot
        product groups its flips by sign, so it costs two bit counts
        instead of one term per flip.
        """
        d, model = self.dim, self.model
        if not model.exchangeable:
            raise CapabilityError(
                f"level tables need a target that declares every coordinate "
                f"permutation, {model!r} does not")
        if d > LEVEL_DIM_CAP:
            raise CapabilityError(f"level tables stop at d = {LEVEL_DIM_CAP}, got d = {d}")
        features = self._gibbs_probs if self.sampler == "gibbs" else getattr(
            self, f"_{self.sampler}_features")
        rows, log_weight = _level_rows(model, lambda signs: features(signs, score.signs(signs)))
        # no state flips a coordinate where u >= the largest flip probability
        # (every row leads with the flip probabilities), so a block keeps only
        # as many sorted uniforms per step as the most any step has below it
        top = max(max(row[0]) for row in rows)

        def uniforms(u):
            # per step, the smallest uniforms in ascending order and the running
            # OR of their coordinates' bits: the coordinates whose uniforms lie
            # below a threshold t are the word at the count of uniforms below t.
            # Past a step's own candidates its row holds uniforms >= top, which
            # no threshold exceeds, so no lookup reaches them.
            width = int((u < top).sum(axis=1).max())
            order = np.argsort(u, axis=1)[:, :width]
            values = np.take_along_axis(u, order, axis=1).tolist()
            running = np.zeros((len(u), width + 1), dtype=np.uint64)
            np.bitwise_or.accumulate(np.uint64(1) << order.astype(np.uint64), axis=1,
                                     out=running[:, 1:])
            return list(zip(values, running.tolist()))

        def flips(u, q, x):
            values, running = u
            plus, minus = q
            # u_i < plus where x_i = +1 and u_i < minus where x_i = -1
            at_plus = running[bisect_left(values, plus)]
            at_minus = running[bisect_left(values, minus)]
            return at_minus ^ ((at_plus ^ at_minus) & x)

        # gibbs: a sequential sum of d nonnegative flip probabilities exceeds
        # their exact sum by less than a relative d * 2^-53, so u at or above
        # a level's bound stays put on every state of that level
        slack = 1.0 + 4.0 * d * 2.0 ** -53
        stay = [(k * plus + (d - k) * minus) * slack
                for k, (plus, minus) in enumerate(row[0] for row in rows)]

        def pick(cum, u, x):
            # the flipped coordinate is the first whose running flip mass,
            # summed in coordinate order as `_gibbs_features` does, exceeds u
            u = u[0]
            if u >= stay[x.bit_count()]:
                return 0
            plus, minus = cum
            total = 0.0
            for i in range(d):
                total += plus if x >> i & 1 else minus
                if total > u:
                    return 1 << i
            return 0

        def flip_dot(flips, a, b, x):
            # a at the proposal's level, b at the state's
            down = (x & flips).bit_count()
            up = flips.bit_count() - down
            return down * (a[1] - b[0]) + up * (a[0] - b[1])

        def move_dot(plus, minus, values, z):
            on_plus = (plus & z).bit_count() - (minus & z).bit_count()
            on_minus = plus.bit_count() - minus.bit_count() - on_plus
            return on_plus * values[0] + on_minus * values[1]

        self._at = lambda x: rows[x.bit_count()]
        self._log_weight = lambda x: log_weight[x.bit_count()]
        self._flip = self._move = operator.xor
        self._list = np.ndarray.tolist
        self._uniforms = uniforms
        self._flips = flips
        self._pick = pick
        self._stage_one = lambda flips: (words := pack_words(flips), words)
        self._flip_dot = flip_dot
        self._move_dot = move_dot
        self._accept = lambda ok, new, old, there, here: (new if ok else old, None)

    def _table_row(self, k):
        row = self._table.take(k, axis=0)
        return [row[..., c] for c in self._columns]

    # the per-state arrays a step reads, for (..., d) signs and their scores;
    # `__init__` binds the sampler's one into `_at` or into its tables

    def _gibbs_probs(self, signs: np.ndarray, score: np.ndarray) -> tuple:
        return (self.h * expit(-2.0 * (signs * score)),)

    def _gibbs_features(self, signs: np.ndarray, score: np.ndarray) -> tuple:
        cum = np.cumsum(self._gibbs_probs(signs, score)[0], axis=-1)
        # with a leading 0, the flipped coordinate is where `cum <= u` turns false
        return (np.concatenate([np.zeros_like(cum[..., :1]), cum], axis=-1),)

    def _dula_features(self, signs: np.ndarray, score: np.ndarray) -> tuple:
        return (expit(-2.0 / self.eta - signs * score),)

    def _dmala_features(self, signs: np.ndarray, score: np.ndarray) -> tuple:
        # per coordinate log q - log(1 - q) is the logit, so a proposal's log
        # probability is sum_i log(1 - q_i) + flips . logit
        logit = -2.0 / self.eta - signs * score
        base = self.model.log_weight_signs(signs) + log_expit(-logit).sum(axis=-1)
        return expit(logit), logit, base

    def _dups_features(self, signs: np.ndarray, score: np.ndarray) -> tuple:
        return (expit(-2.0 / self.eta - 2.0 * (signs * score)),)

    def _dmaps_features(self, signs: np.ndarray, score: np.ndarray) -> tuple:
        tilt2 = 2.0 * (signs * score)
        return expit(-2.0 / self.eta - tilt2), tilt2

    def prepare(self, u: np.ndarray) -> tuple:
        """Step operands from `(..., m)` uniforms, with the same leading shape."""
        d = self.dim
        if self.sampler == "gibbs":
            return (self._list(u),)
        if self.sampler == "dula":
            return (self._uniforms(u),)
        with np.errstate(divide="ignore"):
            log_accept = self._list(np.log(u[..., -1]))
        if self.sampler == "dmala":
            return self._uniforms(u[..., :d]), log_accept
        word1, flips1 = self._stage_one(u[..., :d] < expit(-2.0 / self.eta))
        if self.sampler == "dups":
            return word1, self._uniforms(u[..., d:])
        return word1, flips1, self._uniforms(u[..., d:2 * d]), log_accept

    def _gibbs(self, x, u, carry=None):
        (cum,) = self._at(x)
        nxt = self._move(x, self._pick(cum, u, x))
        return nxt, True, nxt, None, None

    def _dula(self, x, u, carry=None):
        (q,) = self._at(x)
        nxt = self._move(x, self._flips(u, q, x))
        return nxt, True, nxt, None, None

    def _dmala(self, x, u, log_u, carry=None):
        here = self._at(x) if carry is None else carry
        q, logit, base = here
        flips = self._flips(u, q, x)
        prop = self._move(x, flips)
        there = self._at(prop)
        _, logit_rev, base_rev = there
        ok = log_u < base_rev - base + self._flip_dot(flips, logit_rev, logit, x)
        nxt, carry = self._accept(ok, prop, x, there, here)
        return nxt, ok, prop, None, carry

    def _dups(self, x, word1, u, carry=None):
        z = self._flip(x, word1)
        (q2,) = self._at(z)
        nxt = self._move(z, self._flips(u, q2, z))
        return nxt, True, nxt, z, None

    def _dmaps(self, x, word1, flips1, u, log_u, carry=None):
        z = self._flip(x, word1)
        q2, tilt2 = self._at(z)
        flips2 = self._flips(u, q2, z)
        prop = self._move(z, flips2)
        here = (self._log_weight(x),) if carry is None else carry
        there = (self._log_weight(prop),)
        # x - prop = 2 z (flips2 - flips1), so (x - prop) . s(z) needs no signs of x
        log_a = there[0] - here[0] + self._move_dot(flips2, flips1, tilt2, z)
        ok = log_u < log_a
        nxt, carry = self._accept(ok, prop, x, there, here)
        return nxt, ok, prop, z, carry


def _level_rows(model: TargetModel, evaluate) -> tuple[list, list]:
    """Per level k = 0..d, the features that `evaluate` gives on signs, and
    the log weight, read off the state whose first k coordinates are +1.

    A (..., d) feature becomes a (plus, minus) pair per level, a per-state
    one a float. Every per-coordinate feature and the log weight are also
    evaluated with the last k coordinates +1, and must equal, bit for bit,
    the level's values placed on either arrangement; a target that declares
    the permutations and breaks them raises NumericalError. Per-state sums
    of checked terms (dmala's base) add them in another order on the other
    arrangement and are not compared. The 2(d + 1) states cost O(d^2)
    closed-form work, which `LEVEL_DIM_CAP` keeps small.
    """
    d = model.dim
    first = np.where(np.arange(d) < np.arange(d + 1)[:, None], 1.0, -1.0)
    last = first[:, ::-1]
    lw = model.log_weight_signs(first)
    same = np.array_equal(lw, model.log_weight_signs(last))
    values = []
    for a, b in zip(evaluate(first), evaluate(last)):
        if a.ndim == 1:
            values.append(a.tolist())
            continue
        # column 0 is +1 on every level but 0, column d - 1 is -1 on every level but d
        placed = np.where(first > 0, a[:, :1], a[:, -1:])
        same = same and np.array_equal(a, placed) and np.array_equal(b, placed[:, ::-1])
        values.append(list(zip(a[:, 0].tolist(), a[:, -1].tolist())))
    if not same:
        raise NumericalError(f"{model!r} declares every coordinate permutation, but its "
                             f"log weight or step features change under one")
    return list(zip(*values)), lw.tolist()


def _step_once(model: TargetModel, sampler: str, score: ScoreField | None, x: BitState,
               eta: float, rng: np.random.Generator) -> StepOutcome:
    """One step from x through the closed-form stepper, on fresh uniforms."""
    _check_state(model, x)
    st = Stepper(model, sampler, score, eta, tables=False)
    u = rng.random(st.uniforms_per_step)
    nxt, ok, prop, aux, _ = st.step(x.signs().astype(np.float64), *st.prepare(u))
    return StepOutcome(BitState.from_signs(nxt), bool(ok), BitState.from_signs(prop),
                       None if aux is None else BitState.from_signs(aux))
