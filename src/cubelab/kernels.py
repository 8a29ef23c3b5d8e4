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

Each sampler's step is defined once, in `Stepper`, and bound when the
stepper is built as a closure over the primitives of its state
representation; it moves a whole batch of states, or one packed word, on
pre-drawn uniforms, and the `*_step` functions run it on a single state.
`kernel_matrix` is the one place that maps a sampler name to its dense
builder.

Every dense law of independent flips (the dula step, the dmala proposal, both
stages of dups and dmaps, and the product laws that transport recognizes) is
summed in log-odds form by the one function `_flip_log_kernel`, never from
the log of a flip probability, so the kernels stay finite for every eta > 0,
also where exp(-2/eta) underflows or a flip probability rounds to 1. dmala
and dmaps share one rejected-mass fold.

The dense builders and the symmetry checks move O(4^d) data with no
(2^d, 2^d) gather: `_flip_log_kernel` sums flip rates in destination order,
`_checked_images` compares each array with a strided view of itself, and the
dmaps sum takes its auxiliary states in blocks.
"""

from __future__ import annotations

import contextlib
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy.special import expit, log_expit

from .errors import CapabilityError, NumericalError, ParameterError
from .models import TargetModel, _require_finite_rows, log_weight_table
from .scores import ScoreField, _definition
from .statespace import (BitState, _bit_axes, _moved_view, all_signs, cube_orbits,
                         flip_neighbors, pack_words, unpack_words)

# dense kernels hold 4^d doubles: d = 12 is ~134 MB and the practical top
MAX_MATRIX_DIM = 12
# largest entrywise change a declared symmetry g may make to a kernel, the
# log weights or the tilt table, relative to their largest magnitude when
# that exceeds 1 (`_checked_images`); kernels built from invariant targets
# stay within 1e-14
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
    if np.isfinite(a).all():
        return
    at = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
    raise ValueError(f"{name} has a non-finite entry {a[at]} at index "
                     f"{at[0] if a.ndim == 1 else at}")


@dataclass(frozen=True)
class KernelMatrix:
    """Dense row-stochastic one-step law of a sampler at one step size that
    commutes with the cube isometries `symmetries`, `(sigma, flip_mask)` as
    `cube_orbits` normalizes them; a builder given a model declares its
    `symmetries()`. Construction checks each once, on all n^2 entries
    (`_checked_images`), and analysis reads them unchecked;
    `dataclasses.replace(kernel, symmetries=())` is the same kernel on the
    full cube."""

    probs: np.ndarray
    eta: float
    sampler: str
    score: str | None = None
    symmetries: tuple = ()

    def __post_init__(self):
        p = self.probs
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("kernel matrix must be square")
        # side 1 would be the 0-cube, which has no coordinate to flip
        if p.shape[0] & (p.shape[0] - 1) or p.shape[0] < 2:
            raise ValueError(f"kernel matrix side {p.shape[0]} is not a power of two above 1")
        _require_finite(p, "kernel")
        if p.min() < -1e-12:
            raise ValueError(f"kernel has a negative entry: {p.min()}")
        err = np.abs(p.sum(axis=1) - 1.0).max()
        if err > 1e-12:
            raise ValueError(f"kernel rows sum to 1 only within {err:.3e}")
        p.setflags(write=False)
        object.__setattr__(self, "symmetries", cube_orbits(self.dim, self.symmetries).generators)
        _checked_images("kernel", self.dim, self.symmetries,
                        [("transition probabilities", p, "xx")])

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


def _check_score(model: TargetModel, score: ScoreField) -> None:
    if score.model != model:
        raise ParameterError(f"a score field of {score.model!r} cannot drive {model!r}")


def _check_step(model: TargetModel, sampler: str, score: str | None,
                eta: float) -> float | None:
    """Check a step request to a `Stepper`, a chain config or the gibbs
    kernel, whose score is a kind or None (gibbs reads glauber whatever it names);
    return gibbs's step size exp(-2/eta), at most 1/d, and None for other samplers."""
    if sampler not in STEP_SAMPLERS:
        raise ParameterError(
            f"sampler {sampler!r} has no step, expected one of {STEP_SAMPLERS}")
    _check_eta(eta)
    if score is not None:
        _definition(score)  # raises the scores module's error for an unknown kind
    elif sampler != "gibbs":
        raise ParameterError(f"sampler {sampler!r} needs a score field")
    if sampler != "gibbs":
        return None
    h = math.exp(-2.0 / eta)
    if h > 1.0 / model.dim:
        raise ParameterError(
            f"gibbs requires exp(-2/eta) <= 1/d: exp(-2/{eta}) = {h:.6g} > 1/{model.dim}")
    return h


def _check_dense(model: TargetModel, eta: float, score: ScoreField | None = None) -> None:
    """What a dense builder with a step size checks first: the cap, eta, and
    that its score field, if any, is of the same model."""
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    if score is not None:
        _check_score(model, score)


def _flip_log_kernel(logit: np.ndarray, origin: np.ndarray | None = None) -> np.ndarray:
    """Log kernel of independent flips: entry (r, j) is the log-probability of
    reaching state j from the state whose bits are `origin[r]`, coordinate i
    flipping with log-odds logit[r, i], or logit[0, i] when `logit` has one
    row. By default row k starts at state k, which makes the dense kernel;
    all-false origins make each row's flip-pattern law.

    The sum is taken in log-odds form, log sigma(logit) where bit i of j
    differs from the origin's and log sigma(-logit) elsewhere, so no flip
    probability is ever rounded to 0 or 1 before its log is taken. It runs
    in destination order, bit 0 first, into one preallocated array, with no
    (2^d, 2^d) gather."""
    d = logit.shape[1]
    n = 1 << d
    own = unpack_words(np.arange(n), d) if origin is None else origin
    flip, stay = log_expit(logit), log_expit(-logit)
    out = np.zeros((len(own), n))
    for i in range(d):
        # columns [0, 2^i) hold the sums over bits below i; bit i of j is the
        # most significant so far, so its 1-half is the shifted copy
        w = 1 << i
        np.add(out[:, :w], np.where(own[:, i], stay[:, i], flip[:, i])[:, None],
               out=out[:, w:2 * w])
        out[:, :w] += np.where(own[:, i], flip[:, i], stay[:, i])[:, None]
    return out


def _metropolis_flux(log_t: np.ndarray, lw: np.ndarray) -> np.ndarray:
    """Accepted flux min{t(x'|x), t(x|x') w(x') / w(x)} of the proposal with
    log kernel `log_t` against the target with log weights `lw`."""
    return np.exp(np.minimum(log_t, log_t.T + (lw[None, :] - lw[:, None])))


def _fold_rejections(flux: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Add the rejected mass 1 - sum of each row of `flux` to its entry in
    column `diag`: the row's own state."""
    flux[np.arange(len(diag)), diag] += 1.0 - flux.sum(axis=1)
    return flux


def _single_flip_matrix(rates: np.ndarray) -> np.ndarray:
    """Off-diagonal rates on hypercube edges, diagonal balancing rows to zero."""
    n, d = rates.shape
    q = np.zeros((n, n))
    q[np.arange(n)[:, None], flip_neighbors(d)] = rates
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


# ---------------------------------------------------------------------------
# generators


def glauber_generator(model: TargetModel) -> GeneratorMatrix:
    """Single-flip rate matrix with rates sigma(-2 x_i g(x)_i)."""
    _check_matrix_dim(model.dim)
    tilt = ScoreField(model, "glauber").tilt()
    return GeneratorMatrix(_single_flip_matrix(expit(-2.0 * tilt)))


def dula_generator(score: ScoreField) -> GeneratorMatrix:
    """Single-flip rate matrix with rates exp(-x_i s(x)_i)."""
    _check_matrix_dim(score.model.dim)
    return GeneratorMatrix(_single_flip_matrix(np.exp(-score.tilt())))


def dups_generator(score: ScoreField) -> GeneratorMatrix:
    """Single-flip rate matrix with rates 1 + exp(-2 x_i s(x)_i)."""
    _check_matrix_dim(score.model.dim)
    return GeneratorMatrix(_single_flip_matrix(1.0 + np.exp(-2.0 * score.tilt())))


# ---------------------------------------------------------------------------
# damped single-flip resampling


def gibbs_step(model: TargetModel, x: BitState, eta: float,
               rng: np.random.Generator) -> StepOutcome:
    """One damped resampling step: flip at most one coordinate."""
    return _step_once(model, "gibbs", None, x, eta, rng)


def gibbs_matrix(model: TargetModel, eta: float) -> KernelMatrix:
    """The damped single-flip kernel, built literally as I + h Q."""
    _check_matrix_dim(model.dim)
    h = _check_step(model, "gibbs", None, eta)
    q = glauber_generator(model).rates
    return KernelMatrix(np.eye(q.shape[0]) + h * q, eta, "gibbs", None, model.symmetries())


# ---------------------------------------------------------------------------
# independent-flip sampler and its Metropolis adjustment


def _stage_logits(score: ScoreField, eta: float, scale: float) -> np.ndarray:
    """Log-odds -2/eta - scale x_i s(x)_i of flipping coordinate i of every
    state x: scale 1 for dula and the dmala proposal, 2 for stage two of dups and dmaps."""
    return -2.0 / eta - scale * score.tilt()


def _score_log_kernel(score: ScoreField, eta: float, scale: float) -> np.ndarray:
    """Log kernel of the independent flips with `_stage_logits`."""
    return _flip_log_kernel(_stage_logits(score, eta, scale))


def dula_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
              rng: np.random.Generator) -> StepOutcome:
    """Flip every coordinate independently, tilted by the score."""
    return _step_once(model, "dula", score, x, eta, rng)


def dula_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    _check_dense(model, eta, score)
    return KernelMatrix(np.exp(_score_log_kernel(score, eta, 1.0)), eta, "dula", score.kind,
                        model.symmetries())


def dmala_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
               rng: np.random.Generator) -> StepOutcome:
    """Independent-flip proposal, Metropolis-corrected toward the target.

    The acceptance ratio uses the factorized proposal, so one step costs
    O(d) score and log-weight evaluations, never a sum over states.
    """
    return _step_once(model, "dmala", score, x, eta, rng)


def dmala_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    _check_dense(model, eta, score)
    lw = log_weight_table(model)
    flux = _metropolis_flux(_score_log_kernel(score, eta, 1.0), lw)
    return KernelMatrix(_fold_rejections(flux, np.arange(len(lw))), eta, "dmala", score.kind,
                        model.symmetries())


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
    _check_dense(model, eta, score)
    stage1 = np.exp(_stage_one_log_kernel(model.dim, eta))
    stage2 = np.exp(_score_log_kernel(score, eta, 2.0))
    return KernelMatrix(stage1 @ stage2, eta, "dups", score.kind, model.symmetries())


def dmaps_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
               rng: np.random.Generator) -> StepOutcome:
    """The dups stages plus the stagewise Metropolis accept/reject."""
    return _step_once(model, "dmaps", score, x, eta, rng)


# a z whose phi_z spans more than this keeps the exp-of-differences form: past
# it u_z = exp(phi_z - max phi_z) nears the subnormals and 1 / u_z overflows
_PHI_SPAN = 700.0
# bytes of one row tile of the dmaps flux and of its buffer of z terms (L2-sized)
_FLUX_TILE_BYTES = 1 << 18


def _checked_images(owner: str, dim: int, symmetries, parts) -> None:
    """Check each isometry g = (sigma, flip_mask) in `symmetries` on each
    (name, a, axes) of `parts`: moving every state axis "x" of a by g and
    every coordinate axis "i" by sigma changes no entry by over
    `SYMMETRY_TOL` max(1, max |a|), else NumericalError naming `owner`.

    Each part is compared with a strided view of itself (`_moved_view`), so
    a check reads every entry twice and writes one difference array, with
    no gather of the moved entries."""
    scales = [max(1.0, float(np.abs(a).max())) for _, a, _ in parts]
    for sigma, mask in symmetries:
        for (name, a, axes), scale in zip(parts, scales):
            diff = np.subtract(_moved_view(a, axes, dim, sigma, mask), _bit_axes(a, axes, dim))
            dev = float(np.abs(diff, out=diff).max())
            if dev > SYMMETRY_TOL * scale:
                raise NumericalError(
                    f"{owner} breaks the declared symmetry (sigma={tuple(sigma)}, "
                    f"flip_mask={mask:#x}) on its {name} by {dev:.3e}", residual=dev)


def _permute_orbits(reps: np.ndarray, rows: np.ndarray, images: tuple) -> np.ndarray:
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
    maps, back = np.array([*images, *inverses]), np.array([*inverses, *images])
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
                      eta: float) -> tuple[np.ndarray, np.ndarray, tuple]:
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
    flux(g x, g x') = flux(x, x'). Each declared generator is checked on
    both first (`_checked_images`), and the z-loop runs over the r orbit
    representatives only (`reps` of `statespace.cube_orbits`; every state
    with no symmetry): O(r 4^d) time. The memory is three 2^d x 2^d arrays
    (T2, u and T1), the r x 2^d rows and T1 / u at them, and one buffer of
    at most `_FLUX_TILE_BYTES`: the z loop runs over one tile of rows at a
    time, so that the tile and the buffer stay in cache, and fills the
    buffer with the terms of as many consecutive z as it holds, by one
    minimum and two products over the block. Each term is then added to the
    tile in ascending z, as one z at a time would add it, so the flux does
    not depend on the block size.
    """
    _check_dense(model, eta, score)
    n = 1 << model.dim
    signs = all_signs(model.dim).astype(np.float64)
    lw = log_weight_table(model)
    tab = score.table()
    _checked_images(repr(model), model.dim, model.symmetries(),
                    [("log weights", lw, "x"), ("tilt table", score.tilt(), "xi")])
    orbits = cube_orbits(model.dim, model.symmetries())
    reps = orbits.reps
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
    # z terms per block: as many tiles of terms as fill one buffer
    zs = min(n, max(1, _FLUX_TILE_BYTES // (8 * n * min(rows, len(reps)))))
    buf = np.empty((zs, min(rows, len(reps)), n))
    slow = np.flatnonzero(~factored).tolist()
    for r in range(0, len(reps), rows):
        tile = flux[r:r + rows]
        at = reps[r:r + rows]
        for z0 in range(0, n, zs):
            b = buf[:min(zs, n - z0), :len(tile)]
            np.minimum(u_at[z0:z0 + zs, r:r + rows, None], u[z0:z0 + zs, None, :], out=b)
            for z in slow[bisect_left(slow, z0):bisect_left(slow, z0 + zs)]:
                phi_z = lw - signs @ tab[z]
                np.exp(np.minimum(phi_z[None, :] - phi_z[at, None], 0.0), out=b[z - z0])
            b *= col[z0:z0 + zs, r:r + rows, None]
            b *= stage2[z0:z0 + zs, None, :]
            # one z term after another, in ascending z
            for term in b:
                tile += term
    return reps, flux, orbits.images


def dmaps_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    """Exact adjusted two-stage kernel, summed over all auxiliary states on
    one state per orbit of the target's symmetries (`_dmaps_orbit_flux`).
    Rejected mass lands on the diagonal, folded on the representative rows
    before they are permuted, so every row, diagonal included, is an exact
    permutation of its representative's.
    """
    reps, rows, images = _dmaps_orbit_flux(model, score, eta)
    probs = _permute_orbits(reps, _fold_rejections(rows, reps), images)
    return KernelMatrix(probs, eta, "dmaps", score.kind, model.symmetries())


def prox_exact_matrix(model: TargetModel, eta: float) -> KernelMatrix:
    """The exact two-stage kernel whose second stage is target-tilted.

    Stage two draws x' with probability proportional to
    w(x') exp(z^T x' / eta), normalized per auxiliary state over all 2^d
    states, which is what caps the dimension.
    """
    _check_dense(model, eta)
    lw = log_weight_table(model)
    log_t1 = _stage_one_log_kernel(model.dim, eta)
    # z^T x' / eta = -2 hamming(z, x') / eta up to a constant, and so is log T1(z, x')
    log_v = lw[None, :] + log_t1
    log_v -= log_v.max(axis=1, keepdims=True)
    v = np.exp(log_v)
    v /= v.sum(axis=1, keepdims=True)
    return KernelMatrix(np.exp(log_t1) @ v, eta, "prox", None, model.symmetries())


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


STEPPER_FORMS = ("vectors", "table", "words", "levels")


def _form_refusal(model: TargetModel, form: str) -> str:
    """Why a `Stepper` of `form` cannot step `model`, "" when it can (the
    ranges are in the `Stepper` docstring); exchangeability is read only
    within the level cap."""
    if form not in STEPPER_FORMS:
        raise ValueError(f"unknown stepper form {form!r}, expected one of {STEPPER_FORMS}")
    if form in ("table", "words") and model.dim > MAX_MATRIX_DIM:
        return f"state tables stop at d = {MAX_MATRIX_DIM}, got d = {model.dim}"
    if form == "levels" and model.dim > LEVEL_DIM_CAP:
        return f"level tables stop at d = {LEVEL_DIM_CAP}, got d = {model.dim}"
    if form == "levels" and not model.exchangeable:
        return (f"level tables need a target that declares every coordinate "
                f"permutation, {model!r} does not")
    return ""


def chain_form(model: TargetModel) -> str:
    """The `Stepper` form in which `simulate.run_chain` steps the chains of
    `model`: the first of "words", "levels" and "vectors" that can step it."""
    return next(form for form in ("words", "levels", "vectors")
                if not _form_refusal(model, form))


class Stepper:
    """One sampler's transition, on a batch of states or on a single state.

    The score is named by its kind (None for gibbs, which always reads the
    glauber score), and the stepper builds its one `ScoreField` of `model`.
    A step reads m = `uniforms_per_step` uniforms on [0, 1), fixed per
    sampler: gibbs 1, dula d, dmala d + 1, dups 2d, dmaps 2d + 1. The state
    representation is the named `form`, fixed at construction and refused
    outside its range (CapabilityError); a chain run takes the first of
    "words", "levels" and "vectors" whose range holds its model
    (`chain_form`).

    * "vectors": states are float arrays of +-1 coordinates, shaped
      (..., d), and every per-state quantity comes from the model's closed
      forms, at any dimension. `start(states)` checks what a step reads at
      its own (n, d) states and returns the carry of a first step from
      them; `run_chain` and the `*_step` functions start with it. A target
      that is finite there but overflows on a later proposal raises
      ParameterError from `_raising_step_faults`, the context in which
      `run_chain` runs each block of steps and a `*_step` function its one
      step; no `isfinite` runs per step.
    * "table": states are packed int64 words of any batch shape, and
      every per-state quantity is read from a table over all 2^d states,
      up to d = `MAX_MATRIX_DIM`, the dense cap that chain estimators are
      checked against. `simulate.sample_transitions` draws with it, one
      batched step from a fixed state per block of draws, in the same
      context.
    * "words": one state, a Python int word, in the range of "table",
      whose table row is a tuple of Python lists and floats; a step makes
      no numpy call, so chains step alone, at a cost linear in their count.
    * "levels": one state, a Python int word, of an exchangeable target
      (`TargetModel.exchangeable`) with d at most `LEVEL_DIM_CAP`. Every
      feature then depends only on x_i and on the state's +1 count, so
      `__init__` evaluates the closed forms once, on the d + 1 states
      "first k coordinates +1", and checks them on "last k coordinates +1"
      (`NumericalError` if any value differs). A step reads row
      `x.bit_count()` of that level table and makes no numpy call. The
      features equal the closed forms bit for bit, except dmala's
      per-state base, a sum whose order differs by a few ulps.

    In the batched representations a step reads a `(..., m)` block of
    uniforms whose leading shape broadcasts with the states', so one state
    with n rows of uniforms makes n draws. Each sampler's step is defined
    once, in `_<sampler>_step`, against primitives that `__init__` binds
    per form: the flips where `u < q` (a mask, or in the word forms a
    packed word), gibbs's pick from a cumulative row, flipping a state by
    a packed word or by those flips, the two Metropolis dot products and
    the accept step, which compares the log acceptance uniform with the log
    ratio and selects the next states and carry. The flips, the pick and
    the dot products also take the state their features belong to, which
    only the level primitives read: they split the flips by the sign they
    leave. The "words" dot products add the terms of the flipped
    coordinates in ascending order, which is how `np.vecdot` sums vectors
    this short, so both table forms give the same floats; the
    level dot products are a count times a level difference per sign.
    Python floats overflow without a word, so the word forms' accept
    raises FloatingPointError on a log ratio that is not finite, which
    `_raising_step_faults` turns into a ParameterError, as numpy's own.

    `__init__` binds that definition once, as a closure over the
    primitives, into `step(x, operands, carry=None)`, which returns
    `(next, accepted, proposal, auxiliary, carry)` and makes no attribute
    lookup; every caller passes a step's operands as one tuple.
    `prepare(u)` turns a block of uniforms into those operands, doing the
    path-independent work (stage-one flips, logs of acceptance uniforms)
    for the whole block at once: `zip(*prepare(u))` gives each step's
    tuple, and a one-shot batched step takes `prepare(u)` itself. A word
    form's block is `(n, m)`, handed out as Python lists.

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

    def __init__(self, model: TargetModel, sampler: str, score: str | None,
                 eta: float, form: str):
        if refusal := _form_refusal(model, form):
            raise CapabilityError(refusal)
        self.h = _check_step(model, sampler, score, eta)
        d = model.dim
        score = ScoreField(model, "glauber" if sampler == "gibbs" else score)
        self.uniforms_per_step = {"gibbs": 1, "dula": d, "dmala": d + 1,
                                  "dups": 2 * d, "dmaps": 2 * d + 1}[sampler]
        self.form = form
        self.sampler = sampler
        self.dim = d
        self.eta = eta
        self.model = model
        features = getattr(self, f"_{sampler}_features")
        if form == "vectors":
            self._bind_vectors(score, features)
        elif form == "levels":
            self._bind_levels(score, self._gibbs_probs if sampler == "gibbs" else features)
        else:
            signs = all_signs(d).astype(np.float64)
            log_weight, table_features = _require_finite_features(
                model, score, features, signs, range(1 << d))
            bind = self._bind_table if form == "table" else self._bind_words
            bind(table_features, log_weight)
        self.step = getattr(self, f"_{sampler}_step")()

    def _bind_arrays(self) -> None:
        """The primitives both batched representations share."""
        self._list = self._uniforms = lambda a: a
        self._flips = lambda u, q, x: u < q
        self._pick = lambda cum, u, x: (below := cum <= u[..., None])[..., :-1] ^ below[..., 1:]
        self._flip_dot = lambda flips, a, b, x: np.vecdot(flips, a - b)
        self._move_dot = lambda plus, minus, values, z: np.vecdot(plus - minus, values)

    def _bind_vectors(self, score: ScoreField, features) -> None:
        """Primitives on (..., d) +-1 float arrays, against the closed forms."""
        self._bind_arrays()
        self._at = lambda x: features(x, score.signs(x))
        self._score, self._features = score, features
        self._log_weight = self.model.log_weight_signs
        self._flip = self._move = lambda x, flips: np.where(flips, -x, x)
        self._stage_one = lambda flips: (flips, flips.astype(np.float64))

        def carried(ok, there, here):
            # dmala carries a tuple of features; each per-state array is
            # shaped like ok (log weights) or like the states
            if type(there) is tuple:
                return tuple(carried(ok, a, b) for a, b in zip(there, here))
            return np.where(ok if there.ndim == ok.ndim else ok[..., None], there, here)

        def accept(log_u, log_a, new, old, there, here):
            ok = log_u < log_a
            # every chain accepted: the proposals and their features are
            # the next states and carry as they stand, with no select
            if ok.all():
                return new, ok, there
            return np.where(ok[..., None], new, old), ok, carried(ok, there, here)

        self._accept = accept

    def _bind_table(self, features: tuple, log_weight: np.ndarray) -> None:
        """Primitives on int64 words of any batch shape, against tables of
        all 2^d states."""
        self._bind_arrays()
        pow2 = np.int64(1) << np.arange(self.dim, dtype=np.int64)
        self._flip = operator.xor
        # every feature of a state sits in one table row, read by a single take
        self._table = np.hstack([f.reshape(len(log_weight), -1) for f in features])
        widths = [f[0].size for f in features]
        starts = np.cumsum([0] + widths)
        self._columns = [slice(a, a + w) if f.ndim == 2 else a
                         for f, a, w in zip(features, starts, widths)]
        self._at = self._table_row
        self._log_weight = log_weight.__getitem__
        self._move = lambda x, flips: x ^ (flips @ pow2)
        self._stage_one = lambda flips: (flips @ pow2, flips.astype(np.float64))

        def accept(log_u, log_a, new, old, there, here):
            ok = log_u < log_a
            return np.where(ok, new, old), ok, None

        self._accept = accept

    def _bind_ints(self) -> None:
        """The primitives both Python int word forms, "words" and "levels", share."""
        self._flip = self._move = operator.xor
        self._list = np.ndarray.tolist
        self._stage_one = lambda flips: (words := pack_words(flips), words)

        def accept(log_u, log_a, new, old, there, here):
            # a Metropolis term that overflowed leaves log_a at +-inf or
            # nan, where log_a - log_a is nan, which is true
            if log_a - log_a:
                raise FloatingPointError(f"log acceptance ratio {log_a}")
            if log_u < log_a:
                return new, True, None
            return old, False, None

        self._accept = accept

    def _bind_words(self, features: tuple, log_weight: np.ndarray) -> None:
        """Primitives on one Python int word against its table rows."""
        self._bind_ints()
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
        self._uniforms = lambda u: list(zip(pack_words(u < top), u.tolist()))
        self._flips = flips
        self._pick = lambda cum, u, x: picks[bisect_right(cum, u)]
        self._flip_dot = flip_dot
        self._move_dot = move_dot

    def _bind_levels(self, score: ScoreField, features) -> None:
        """Primitives on one Python int word, against a table of the d + 1
        levels (+1 counts) of an exchangeable target.

        A level's row holds a (plus, minus) pair for each per-coordinate
        feature, the values at the coordinates that are +1 and -1 there,
        and the per-state features as floats; a step reads the row of its
        state's bit count. A step's flips are two lookups, one per sign,
        among its candidate uniforms, sorted once per block. Each Metropolis
        dot product groups its flips by sign, so it costs two bit counts
        instead of one term per flip.
        """
        self._bind_ints()
        d = self.dim
        rows, log_weight = _level_rows(self.model, score, features)
        # no state flips a coordinate where u >= the largest flip probability
        # (every row leads with the flip probabilities), so a step's
        # candidates are its uniforms below it
        top = max(max(row[0]) for row in rows)

        def uniforms(u):
            # the block's candidates, sorted by value and then stably by step,
            # so a step's operand (values, running, lo, hi) finds its own in
            # ascending order at values[lo:hi]. running[j] is the XOR of the
            # coordinate bits of candidates 0..j-1: within a step no
            # coordinate repeats, so running[k] ^ running[lo] is the word of
            # the step's k - lo smallest candidates
            at = np.flatnonzero(u < top)
            steps, coords = np.divmod(at, d)
            values = u.take(at)
            order = np.argsort(values)
            order = order[np.argsort(steps[order].astype(np.min_scalar_type(len(u))),
                                     kind="stable")]
            running = np.zeros(at.size + 1, dtype=np.uint64)
            np.bitwise_xor.accumulate(np.uint64(1) << coords[order].astype(np.uint64),
                                      out=running[1:])
            bounds = np.zeros(len(u) + 1, dtype=np.int64)
            np.cumsum(np.bincount(steps, minlength=len(u)), out=bounds[1:])
            values, running, bounds = values[order].tolist(), running.tolist(), bounds.tolist()
            return list(zip(repeat(values), repeat(running), bounds, bounds[1:]))

        def flips(u, q, x):
            values, running, lo, hi = u
            plus, minus = q
            base = running[lo]
            # u_i < plus where x_i = +1 and u_i < minus where x_i = -1
            at_plus = running[bisect_left(values, plus, lo, hi)]
            at_minus = running[bisect_left(values, minus, lo, hi)] ^ base
            return at_minus ^ ((at_plus ^ base ^ at_minus) & x)

        # gibbs: a sequential sum of d nonnegative flip probabilities exceeds
        # their exact sum by less than a relative d * 2^-53, so u at or above
        # a level's bound stays put on every state of that level
        slack = 1.0 + 4.0 * d * 2.0 ** -53
        stay = [(k * plus + (d - k) * minus) * slack
                for k, (plus, minus) in enumerate(row[0] for row in rows)]

        def pick(cum, u, x):
            # the flipped coordinate is the first whose running flip mass,
            # summed in coordinate order as `_gibbs_features` does, exceeds u
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
        self._uniforms = uniforms
        self._flips = flips
        self._pick = pick
        self._flip_dot = flip_dot
        self._move_dot = move_dot

    def start(self, states: np.ndarray):
        """The carry of a first +-1 step from the (n, d) `states`, once what a
        step reads there is checked: the log weight and, but for dmaps, which
        scores only its auxiliary states, the score and the step features.
        ParameterError names the first state where one is not finite."""
        words = pack_words(states > 0)
        if self.sampler == "dmaps":
            with np.errstate(all="ignore"):
                lw = self._log_weight(states)
            _require_finite_rows(self.model, lw, "log weight", words)
            return lw
        _, at = _require_finite_features(self.model, self._score, self._features, states, words)
        return at if self.sampler == "dmala" else None

    def _table_row(self, k):
        row = self._table.take(k, axis=0)
        return [row[..., c] for c in self._columns]

    # the per-state arrays a step reads, for (..., d) signs, their scores and
    # their log weights where held already (else dmala, which reads them,
    # evaluates them); `__init__` binds the sampler's one into `_at` or tables

    def _gibbs_probs(self, signs: np.ndarray, score: np.ndarray, log_weight=None) -> tuple:
        return (self.h * expit(-2.0 * (signs * score)),)

    def _gibbs_features(self, signs: np.ndarray, score: np.ndarray, log_weight=None) -> tuple:
        cum = np.cumsum(self._gibbs_probs(signs, score)[0], axis=-1)
        # with a leading 0, the flipped coordinate is where `cum <= u` turns false
        return (np.concatenate([np.zeros_like(cum[..., :1]), cum], axis=-1),)

    def _dula_features(self, signs: np.ndarray, score: np.ndarray, log_weight=None) -> tuple:
        return (expit(-2.0 / self.eta - signs * score),)

    def _dmala_features(self, signs: np.ndarray, score: np.ndarray, log_weight=None) -> tuple:
        # per coordinate log q - log(1 - q) is the logit, so a proposal's log
        # probability is sum_i log(1 - q_i) + flips . logit
        logit = -2.0 / self.eta - signs * score
        if log_weight is None:
            log_weight = self.model.log_weight_signs(signs)
        return expit(logit), logit, log_weight + log_expit(-logit).sum(axis=-1)

    def _dups_features(self, signs: np.ndarray, score: np.ndarray, log_weight=None) -> tuple:
        return (expit(-2.0 / self.eta - 2.0 * (signs * score)),)

    def _dmaps_features(self, signs: np.ndarray, score: np.ndarray, log_weight=None) -> tuple:
        tilt2 = 2.0 * (signs * score)
        return expit(-2.0 / self.eta - tilt2), tilt2

    def prepare(self, u: np.ndarray) -> tuple:
        """Step operands from `(..., m)` uniforms, with the same leading shape."""
        d = self.dim
        if self.sampler == "gibbs":
            return (self._list(u[..., 0]),)
        if self.sampler == "dula":
            return (self._uniforms(u),)
        if self.sampler != "dmala":
            word1, flips1 = self._stage_one(u[..., :d] < expit(-2.0 / self.eta))
            if self.sampler == "dups":
                return word1, self._uniforms(u[..., d:])
        # the last uniform of a Metropolis step is its acceptance draw
        with np.errstate(divide="ignore"):
            log_accept = self._list(np.log(u[..., -1]))
        if self.sampler == "dmala":
            return self._uniforms(u[..., :d]), log_accept
        return word1, flips1, self._uniforms(u[..., d:2 * d]), log_accept

    # Each sampler's one step, bound by `__init__` over the primitives of the
    # representation: the closure reads them as free variables, not as
    # attributes, and takes a step's operands as one tuple.

    def _gibbs_step(self):
        at, move, pick = self._at, self._move, self._pick

        def step(x, operands, carry=None):
            (u,) = operands
            (cum,) = at(x)
            nxt = move(x, pick(cum, u, x))
            return nxt, True, nxt, None, None

        return step

    def _dula_step(self):
        at, move, flips = self._at, self._move, self._flips

        def step(x, operands, carry=None):
            (u,) = operands
            (q,) = at(x)
            nxt = move(x, flips(u, q, x))
            return nxt, True, nxt, None, None

        return step

    def _dmala_step(self):
        at, move, flips, flip_dot, accept = (self._at, self._move, self._flips,
                                             self._flip_dot, self._accept)

        def step(x, operands, carry=None):
            u, log_u = operands
            here = at(x) if carry is None else carry
            q, logit, base = here
            flipped = flips(u, q, x)
            prop = move(x, flipped)
            there = at(prop)
            _, logit_rev, base_rev = there
            nxt, ok, carry = accept(log_u, base_rev - base + flip_dot(flipped, logit_rev, logit, x),
                                    prop, x, there, here)
            return nxt, ok, prop, None, carry

        return step

    def _dups_step(self):
        flip, at, move, flips = self._flip, self._at, self._move, self._flips

        def step(x, operands, carry=None):
            word1, u = operands
            z = flip(x, word1)
            (q2,) = at(z)
            nxt = move(z, flips(u, q2, z))
            return nxt, True, nxt, z, None

        return step

    def _dmaps_step(self):
        flip, at, move, flips = self._flip, self._at, self._move, self._flips
        log_weight, move_dot, accept = self._log_weight, self._move_dot, self._accept

        def step(x, operands, carry=None):
            word1, flips1, u, log_u = operands
            z = flip(x, word1)
            q2, tilt2 = at(z)
            flips2 = flips(u, q2, z)
            prop = move(z, flips2)
            here = log_weight(x) if carry is None else carry
            there = log_weight(prop)
            # x - prop = 2 z (flips2 - flips1), so (x - prop) . s(z) needs no signs of x
            nxt, ok, carry = accept(log_u, there - here + move_dot(flips2, flips1, tilt2, z),
                                    prop, x, there, here)
            return nxt, ok, prop, z, carry

        return step


def _require_finite_features(model: TargetModel, score: ScoreField, features,
                             signs: np.ndarray, words) -> tuple:
    """The log weight and the `features` of a `Stepper` at the (n, d) +-1
    `signs`, evaluated with floating-point warnings off. ParameterError
    (`models._require_finite_rows`) names words[k] at the first state where
    the log weight, the score or a feature is not finite."""
    with np.errstate(all="ignore"):
        lw = model.log_weight_signs(signs)
        s = score.signs(signs)
        at = features(signs, s, lw)
    for what, a in [("log weight", lw), (f"{score.kind} score", s),
                    *(("step feature", a) for a in at)]:
        _require_finite_rows(model, a, what, words)
    return lw, at


def _level_rows(model: TargetModel, score: ScoreField, features) -> tuple[list, list]:
    """Per level k = 0..d, the `features` of a `Stepper` (a (plus, minus)
    pair per level for a (..., d) one, a float for a per-state one) and the
    log weight, read off the state whose first k coordinates are +1.

    The levels cover every state of an exchangeable target, so the log
    weight, the score and the features must be finite there, else
    ParameterError as for the tables of all 2^d states
    (`_require_finite_features`). With the last k
    coordinates +1, the per-coordinate features and the log weight must
    equal, bit for bit, the level's values placed on that arrangement, else
    NumericalError: the target declares the permutations and breaks them
    (dmala's base sums its terms in another order there and is not
    compared). The 2(d + 1) states cost O(d^2) closed-form work, which
    `LEVEL_DIM_CAP` keeps small.
    """
    d = model.dim
    first = np.where(np.arange(d) < np.arange(d + 1)[:, None], 1.0, -1.0)
    last = first[:, ::-1]
    lw, at_first = _require_finite_features(model, score, features, first,
                                            [(1 << k) - 1 for k in range(d + 1)])
    with np.errstate(all="ignore"):
        lw_last = model.log_weight_signs(last)
        at_last = features(last, score.signs(last), lw_last)
    same = np.array_equal(lw, lw_last)
    values = []
    for a, b in zip(at_first, at_last):
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


@contextlib.contextmanager
def _raising_step_faults(model: TargetModel, sampler: str, where):
    """Run +-1 steps with floating-point overflow, invalid operations and
    division by zero raised, and turn the FloatingPointError into a
    ParameterError naming the model, the sampler and the step `where()`
    describes: a closed form that overflows on a proposal, past the states
    that `Stepper.start` checked. One context serves a whole block of steps."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ParameterError(
            f"{model!r} has a non-finite {sampler} step {where()}: {exc}") from exc


def _step_once(model: TargetModel, sampler: str, score: ScoreField | None, x: BitState,
               eta: float, rng: np.random.Generator) -> StepOutcome:
    """One step from x through the closed-form stepper, on fresh uniforms;
    ParameterError where the closed forms are not finite at x or on the
    states the step reaches."""
    model._check_state(x)
    if score is not None:
        _check_score(model, score)
    st = Stepper(model, sampler, None if score is None else score.kind, eta, "vectors")
    signs = x.signs().astype(np.float64)
    st.start(signs[None])
    u = rng.random(st.uniforms_per_step)
    with _raising_step_faults(model, sampler, lambda: f"from state {x.bits:#x}"):
        nxt, ok, prop, aux, _ = st.step(signs, st.prepare(u))
    return StepOutcome(BitState.from_signs(nxt), bool(ok), BitState.from_signs(prop),
                       None if aux is None else BitState.from_signs(aux))
