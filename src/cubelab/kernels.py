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

Flip probabilities are computed directly through a numerically stable
sigmoid: eta = 0.05 already gives exp(-2/eta) ~ 4e-18, far below where
normalizing raw exponentials would underflow.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from .errors import CapabilityError, ParameterError
from .models import TargetModel
from .scores import ScoreField, tabulate_scores
from .statespace import BitState, all_signs

# dense kernels hold 4^d doubles: d = 12 is ~134 MB and the practical top
MAX_MATRIX_DIM = 12

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

    @property
    def dim(self) -> int:
        return self.rates.shape[0].bit_length() - 1


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


def _product_log_kernel(flip_probs: np.ndarray) -> np.ndarray:
    """Log of the row-wise product law for independent per-coordinate flips.

    flip_probs[k, i] is the probability that coordinate i flips when the
    chain sits at state k; entry (k, j) of the result sums log q or
    log(1 - q) according to which bits differ between k and j.
    """
    n, d = flip_probs.shape
    ks = np.arange(n)
    with np.errstate(divide="ignore"):
        logq = np.log(flip_probs)
        log1mq = np.log1p(-flip_probs)
    out = np.zeros((n, n))
    for i in range(d):
        differs = (((ks[:, None] ^ ks[None, :]) >> i) & 1).astype(bool)
        out += np.where(differs, logq[:, i][:, None], log1mq[:, i][:, None])
    return out


def _single_flip_matrix(rates: np.ndarray) -> np.ndarray:
    """Off-diagonal rates on hypercube edges, diagonal balancing rows to zero."""
    n, d = rates.shape
    ks = np.arange(n)
    q = np.zeros((n, n))
    for i in range(d):
        q[ks, ks ^ (1 << i)] = rates[:, i]
    q[ks, ks] = -q.sum(axis=1)
    return q


def _popcount_matrix(dim: int) -> np.ndarray:
    ks = np.arange(1 << dim, dtype=np.uint32)
    return np.bitwise_count(ks[:, None] ^ ks[None, :]).astype(np.int64)


# ---------------------------------------------------------------------------
# generators


def glauber_generator(model: TargetModel, score: ScoreField | None = None) -> GeneratorMatrix:
    """Single-flip rate matrix with rates sigma(-2 x_i g(x)_i).

    A glauber `score` field of `model` lends its table; without one, or
    with any other field, the glauber table is built here.
    """
    _check_matrix_dim(model.dim)
    shared = score is not None and score.kind == "glauber" and score.model == model
    tab = score.table() if shared else tabulate_scores(model, "glauber")
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


def gibbs_matrix(model: TargetModel, eta: float,
                 score: ScoreField | None = None) -> KernelMatrix:
    """The damped single-flip kernel, built literally as I + h Q; `score`
    is passed to `glauber_generator`."""
    _check_matrix_dim(model.dim)
    h = _gibbs_step_size(model, eta)
    q = glauber_generator(model, score).rates
    return KernelMatrix(np.eye(q.shape[0]) + h * q, eta, "gibbs")


# ---------------------------------------------------------------------------
# independent-flip sampler and its Metropolis adjustment


def _dula_flip_probs(score: ScoreField, eta: float) -> np.ndarray:
    signs = all_signs(score.model.dim).astype(np.float64)
    return expit(-2.0 / eta - signs * score.table())


def dula_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
              rng: np.random.Generator) -> StepOutcome:
    """Flip every coordinate independently, tilted by the score."""
    return _step_once(model, "dula", score, x, eta, rng)


def dula_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    probs = np.exp(_product_log_kernel(_dula_flip_probs(score, eta)))
    return KernelMatrix(probs, eta, "dula", score.kind)


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
    log_t = _product_log_kernel(_dula_flip_probs(score, eta))
    lw = model.log_weight_signs(all_signs(model.dim).astype(np.float64))
    log_a = (lw[None, :] - lw[:, None]) + (log_t.T - log_t)
    probs = np.exp(log_t) * np.exp(np.minimum(log_a, 0.0))
    n = probs.shape[0]
    probs[np.arange(n), np.arange(n)] += 1.0 - probs.sum(axis=1)
    return KernelMatrix(probs, eta, "dmala", score.kind)


# ---------------------------------------------------------------------------
# two-stage proximal samplers


def _stage_one_flip_prob(eta: float) -> float:
    return float(expit(-2.0 / eta))


def _stage_two_flip_probs(score: ScoreField, eta: float) -> np.ndarray:
    signs = all_signs(score.model.dim).astype(np.float64)
    return expit(-2.0 / eta - 2.0 * signs * score.table())


def _stage_one_log_kernel(dim: int, eta: float) -> np.ndarray:
    a = _stage_one_flip_prob(eta)
    ham = _popcount_matrix(dim)
    return ham * math.log(a) + (dim - ham) * math.log1p(-a)


def dups_step(model: TargetModel, score: ScoreField, x: BitState, eta: float,
              rng: np.random.Generator) -> StepOutcome:
    """Both half-steps of the unadjusted proximal sampler."""
    return _step_once(model, "dups", score, x, eta, rng)


def dups_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    stage1 = np.exp(_stage_one_log_kernel(model.dim, eta))
    stage2 = np.exp(_product_log_kernel(_stage_two_flip_probs(score, eta)))
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


def _dmaps_flux(model: TargetModel, score: ScoreField, eta: float) -> np.ndarray:
    """Accepted flux of the adjusted two-stage kernel, before the rejected
    mass is folded onto the diagonal.

    flux(x, x') = sum_z T1(x, z) T2(z, x') A_z(x'|x), where the acceptance
    factorizes through phi_z(y) = log w(y) - y^T s(z):
    A_z(x'|x) = min{1, exp(phi_z(x') - phi_z(x))}. With
    u_z = exp(phi_z - max phi_z) this is min{u_z(x'), u_z(x)} / u_z(x), so a
    z adds (T1(., z) / u_z)[:, None] * min.outer(u_z, u_z) * T2(z, .)[None, :]
    and needs no exponential over pairs. A z whose phi_z spans more than
    `_PHI_SPAN` would underflow u_z and make 0 * inf; it keeps the form
    exp(min(phi_z(x') - phi_z(x), 0)). The cost is O(8^d) time; the memory
    is flux and three other 2^d x 2^d arrays (T2, u and T1 / u) plus one
    buffer of `_FLUX_TILE_BYTES`: the z loop runs over one row tile of flux
    at a time, so that the tile and the buffer stay in cache.
    """
    _check_matrix_dim(model.dim)
    _check_eta(eta)
    n = 1 << model.dim
    signs = all_signs(model.dim).astype(np.float64)
    lw = model.log_weight_signs(signs)
    tab = score.table()
    stage2 = np.exp(_product_log_kernel(_stage_two_flip_probs(score, eta)))
    # phi[z, y] = phi_z(y) - max phi_z, then u in place
    phi = tab @ signs.T
    np.subtract(lw, phi, out=phi)
    phi -= phi.max(axis=1, keepdims=True)
    factored = phi.min(axis=1) >= -_PHI_SPAN
    u = np.exp(phi, out=phi)
    # T1 is symmetric, so row z holds T1(., z); factored rows become T1(., z) / u_z
    col = np.exp(_stage_one_log_kernel(model.dim, eta))
    np.divide(col, u, out=col, where=factored[:, None])
    rows = max(1, _FLUX_TILE_BYTES // (8 * n))
    flux = np.zeros((n, n))
    buf = np.empty((min(rows, n), n))
    for r in range(0, n, rows):
        tile = flux[r:r + rows]
        b = buf[:len(tile)]
        for z, fast in enumerate(factored.tolist()):
            if fast:
                np.minimum.outer(u[z, r:r + rows], u[z], out=b)
            else:
                phi_z = lw - signs @ tab[z]
                np.exp(np.minimum(phi_z[None, :] - phi_z[r:r + rows, None], 0.0), out=b)
            b *= col[z, r:r + rows, None]
            b *= stage2[z]
            tile += b
    return flux


def dmaps_matrix(model: TargetModel, score: ScoreField, eta: float) -> KernelMatrix:
    """Exact adjusted two-stage kernel, summed over all auxiliary states.

    Rejected mass lands on the diagonal. The flux comes from `_dmaps_flux`:
    O(8^d) time with no exponential over pairs of states for any z whose
    phi_z spans at most `_PHI_SPAN`, and the memory of a few dense kernels.
    """
    probs = _dmaps_flux(model, score, eta)
    n = probs.shape[0]
    probs[np.arange(n), np.arange(n)] += 1.0 - probs.sum(axis=1)
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
    ham = _popcount_matrix(model.dim)
    # z^T x' = d - 2 * hamming(z, x') up to a per-row constant
    log_v = lw[None, :] - 2.0 * ham / eta
    log_v -= log_v.max(axis=1, keepdims=True)
    v = np.exp(log_v)
    v /= v.sum(axis=1, keepdims=True)
    stage1 = np.exp(_stage_one_log_kernel(model.dim, eta))
    return KernelMatrix(stage1 @ v, eta, "prox")


def kernel_matrix(model: TargetModel, sampler: str, score: ScoreField | None,
                  eta: float) -> KernelMatrix:
    """The dense kernel of any sampler in `SAMPLER_IDS`.

    `score` is required for the samplers outside `SCORE_FREE`. Of those
    inside, prox ignores it and gibbs only borrows the table of a glauber
    field.
    """
    if sampler == "gibbs":
        return gibbs_matrix(model, eta, score)
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
    """One sampler's transition, applied to a whole batch of states at once.

    States carry any leading batch shape. A step reads a `(..., m)` block of
    uniforms on [0, 1), with m = `uniforms_per_step` fixed per sampler:
    gibbs 1, dula d, dmala d + 1, dups 2d, dmaps 2d + 1; the two leading
    shapes broadcast, so one state with n rows of uniforms makes n draws.
    With `tables=True` states are packed int64 words and every per-state
    quantity is read from a table over all 2^d states; otherwise states are
    float arrays of +-1 coordinates, shaped (..., d), and the same
    quantities come from the model's closed forms at any dimension.

    `prepare(u)` turns a block of uniforms into step operands, doing the
    path-independent work (stage-one flips, logs of acceptance uniforms) for
    the whole block at once; `step(states, *operands, carry=None)` returns
    `(next, accepted, proposal, auxiliary, carry)`.

    The carry holds what the Metropolis-adjusted samplers already know about
    the next states: dmala's features and dmaps's log weight, taken from the
    proposal where it was accepted and from the current state elsewhere.
    Passing it back into the next step lets vector mode evaluate each
    proposal's closed forms once and never re-evaluate the current state's;
    without it (a one-shot step) they are evaluated afresh, to the same
    floats. In table mode re-reading a row with one take measured no slower
    than carrying it, so the table carry is None.
    """

    def __init__(self, model: TargetModel, sampler: str, score: ScoreField | None,
                 eta: float, tables: bool):
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
        if tables:
            signs = all_signs(d).astype(np.float64)
            features = self._features(signs, score.table())
            # every feature of a state sits in one table row, read by a single take
            self._table = np.hstack([f.reshape(len(signs), -1) for f in features])
            widths = [f[0].size for f in features]
            starts = np.cumsum([0] + widths)
            self._columns = [slice(a, a + w) if f.ndim == 2 else a
                             for f, a, w in zip(features, starts, widths)]
            pow2 = np.int64(1) << np.arange(d, dtype=np.int64)
            self._at = self._table_row
            self._log_weight = model.log_weight_signs(signs).__getitem__
            self._pack = lambda flips: flips @ pow2
            self._flip = operator.xor
            # np.where is slow on the scalar states of a single chain
            self._select = lambda ok, new, old: (np.where(ok, new, old) if ok.ndim
                                                 else new if ok else old)
            self._keep = lambda ok, new, old: None
        else:
            self._at = lambda x: self._features(x, score.signs(x))
            self._log_weight = model.log_weight_signs
            self._pack = lambda flips: flips
            self._flip = lambda x, flips: np.where(flips, -x, x)
            self._select = lambda ok, new, old: np.where(ok[..., None], new, old)
            # per-state arrays shaped like ok (log weights) or like the states
            self._keep = lambda ok, new, old: tuple(
                np.where(ok if a.ndim == ok.ndim else ok[..., None], a, b)
                for a, b in zip(new, old))

    def _table_row(self, k):
        row = self._table.take(k, axis=0)
        return [row[..., c] for c in self._columns]

    def _features(self, signs: np.ndarray, score: np.ndarray) -> tuple:
        """The per-state arrays a step reads, for (..., d) signs and their scores."""
        tilt = signs * score
        if self.sampler == "gibbs":
            cum = np.cumsum(self.h * expit(-2.0 * tilt), axis=-1)
            # with a leading 0, the flipped coordinate is where `cum <= u` turns false
            return (np.concatenate([np.zeros_like(cum[..., :1]), cum], axis=-1),)
        if self.sampler == "dula":
            return (expit(-2.0 / self.eta - tilt),)
        if self.sampler == "dmala":
            # per coordinate log q - log(1 - q) is the logit, so a proposal's log
            # probability is sum_i log(1 - q_i) + flips . logit
            logit = -2.0 / self.eta - tilt
            base = self.model.log_weight_signs(signs) + log_expit(-logit).sum(axis=-1)
            return expit(logit), logit, base
        q2 = expit(-2.0 / self.eta - 2.0 * tilt)
        return (q2,) if self.sampler == "dups" else (q2, 2.0 * tilt)

    def prepare(self, u: np.ndarray) -> tuple:
        """Step operands from `(..., m)` uniforms, with the same leading shape."""
        d = self.dim
        if self.sampler in ("gibbs", "dula"):
            return (u,)
        with np.errstate(divide="ignore"):
            log_accept = np.log(u[..., -1])
        if self.sampler == "dmala":
            return u[..., :d], log_accept
        flips1 = u[..., :d] < _stage_one_flip_prob(self.eta)
        if self.sampler == "dups":
            return self._pack(flips1), u[..., d:]
        return self._pack(flips1), flips1.astype(np.float64), u[..., d:2 * d], log_accept

    def _gibbs(self, x, u, carry=None):
        (cum,) = self._at(x)
        below = cum <= u
        nxt = self._flip(x, self._pack(below[..., :-1] ^ below[..., 1:]))
        return nxt, True, nxt, None, None

    def _dula(self, x, u, carry=None):
        (q,) = self._at(x)
        nxt = self._flip(x, self._pack(u < q))
        return nxt, True, nxt, None, None

    def _dmala(self, x, u, log_u, carry=None):
        here = self._at(x) if carry is None else carry
        q, logit, base = here
        flips = u < q
        prop = self._flip(x, self._pack(flips))
        there = self._at(prop)
        _, logit_rev, base_rev = there
        ok = log_u < base_rev - base + np.vecdot(flips, logit_rev - logit)
        return self._select(ok, prop, x), ok, prop, None, self._keep(ok, there, here)

    def _dups(self, x, word1, u, carry=None):
        z = self._flip(x, word1)
        (q2,) = self._at(z)
        nxt = self._flip(z, self._pack(u < q2))
        return nxt, True, nxt, z, None

    def _dmaps(self, x, word1, flips1, u, log_u, carry=None):
        z = self._flip(x, word1)
        q2, tilt2 = self._at(z)
        flips2 = u < q2
        prop = self._flip(z, self._pack(flips2))
        here = (self._log_weight(x),) if carry is None else carry
        there = (self._log_weight(prop),)
        # x - prop = 2 z (flips2 - flips1), so (x - prop) . s(z) needs no signs of x
        log_a = there[0] - here[0] + np.vecdot(flips2 - flips1, tilt2)
        ok = log_u < log_a
        return self._select(ok, prop, x), ok, prop, z, self._keep(ok, there, here)


def _step_once(model: TargetModel, sampler: str, score: ScoreField | None, x: BitState,
               eta: float, rng: np.random.Generator) -> StepOutcome:
    """One step from x through the closed-form stepper, on fresh uniforms."""
    _check_state(model, x)
    st = Stepper(model, sampler, score, eta, tables=False)
    u = rng.random(st.uniforms_per_step)
    nxt, ok, prop, aux, _ = st.step(x.signs().astype(np.float64), *st.prepare(u))
    return StepOutcome(BitState.from_signs(nxt), bool(ok), BitState.from_signs(prop),
                       None if aux is None else BitState.from_signs(aux))
