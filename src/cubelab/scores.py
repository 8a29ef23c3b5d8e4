"""The three score families and their regularity constants.

A score assigns each state a vector s(x) in R^d:

* glauber: half the log-weight difference between the two values of each
  coordinate, s(x)_i = (log w(+1, x_-i) - log w(-1, x_-i)) / 2, so
  normalization cancels. The pointwise form evaluates this definition; the
  sign-array form is each model's closed form of it.
* gibbs: the transform s(x)_i = x_i log(1 + exp(2 x_i g(x)_i)) of the
  glauber score g; always satisfies x_i s(x)_i >= 0.
* stein: the gradient of the model's documented smooth continuation of its
  log weight. The continuation is a per-model choice, not canonical.

Each kind is defined once, in pointwise and sign-array forms; a table is the
sign-array form on all 2^d states. Tables and their tilts x_i s(x)_i back the
dense builders and the constant evaluators, built once per (model, kind).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ParameterError
from .models import TargetModel, _require_finite_rows, log_weight_table
from .statespace import BitState, all_signs, flip_neighbors

# each kind's score on (..., d) float signs x of model m, given a function g
# of x that gives the glauber score there: the one definition of the kind,
# which the pointwise, sign-array and table forms evaluate with their own g
_KINDS = {"stein": lambda m, x, g: m.stein_score_signs(x),
          "gibbs": lambda m, x, g: x * np.logaddexp(0.0, 2.0 * x * g(x)),
          "glauber": lambda m, x, g: g(x)}
SCORE_KINDS = tuple(_KINDS)

# score tables hold 2^d * d doubles; beyond this they stop being "small d"
MAX_TABLE_DIM = 16


def glauber_score(model: TargetModel, x: BitState) -> np.ndarray:
    """Half log-weight difference per coordinate, straight from the definition."""
    d = model.dim
    out = np.empty(d)
    for i in range(d):
        hi = BitState(x.bits | (1 << i), d)
        lo = BitState(x.bits & ~(1 << i), d)
        out[i] = 0.5 * (model.log_weight(hi) - model.log_weight(lo))
    return out


def _definition(kind: str):
    if kind not in _KINDS:
        raise ParameterError(f"unknown score kind {kind!r}, expected one of {SCORE_KINDS}")
    return _KINDS[kind]


def gibbs_score(model: TargetModel, x: BitState) -> np.ndarray:
    """The softplus transform of the glauber score."""
    return ScoreField(model, "gibbs")(x)


def stein_score(model: TargetModel, x: BitState) -> np.ndarray:
    """Gradient of the model's smooth continuation at x."""
    return ScoreField(model, "stein")(x)


def score_signs(model: TargetModel, kind: str, signs: np.ndarray) -> np.ndarray:
    """Vectorized score of the given kind over (..., d) sign arrays."""
    return _definition(kind)(model, np.asarray(signs, dtype=np.float64),
                             model.glauber_score_signs)


def tabulate_scores(model: TargetModel, kind: str) -> np.ndarray:
    """Score table of shape (2^d, d), row k = s(state k); read-only.

    The rows are `score_signs` on all 2^d states, the floats of the model's
    closed forms; the pointwise form keeps the log-weight-difference
    definition. Refuses a model whose log weights overflow, then raises
    ParameterError at a state whose row overflows. Each call builds afresh;
    `ScoreField.table()` is the memoized route.
    """
    d = model.dim
    if d > MAX_TABLE_DIM:
        raise CapabilityError(f"score tables capped at d <= {MAX_TABLE_DIM}, got {d}")
    log_weight_table(model)  # the model check: its log weights must be finite
    with np.errstate(all="ignore"):
        tab = np.ascontiguousarray(score_signs(model, kind, all_signs(d)))
    _require_finite_rows(model, tab, f"{kind} score")
    tab.setflags(write=False)
    return tab


# a table depends on the (model, kind) pair alone, so equal models share one;
# sixteen d = 16 tables hold ~134 MB
@functools.lru_cache(maxsize=16)
def _memo_table(model: TargetModel, kind: str) -> np.ndarray:
    # looked up per call, so a replaced `tabulate_scores` counts real builds
    return tabulate_scores(model, kind)


# the tilt of each memoized table, under the same bound
@functools.lru_cache(maxsize=16)
def _memo_tilt(model: TargetModel, kind: str) -> np.ndarray:
    tilt = all_signs(model.dim) * _memo_table(model, kind)
    tilt.setflags(write=False)
    return tilt


class ScoreField:
    """One (model, kind) pair with lazy tabulation.

    Evaluation is pure. `table()` and `tilt()` read bounded memos keyed on
    the (model, kind) pair, so every field of equal models shares one
    read-only table and one read-only tilt, built on first use, without the
    fields being passed around.
    """

    def __init__(self, model: TargetModel, kind: str):
        _definition(kind)
        self.model = model
        self.kind = kind

    def __call__(self, x: BitState) -> np.ndarray:
        return _KINDS[self.kind](self.model, x.signs().astype(np.float64),
                                 lambda signs: glauber_score(self.model, x))

    def signs(self, signs: np.ndarray) -> np.ndarray:
        return score_signs(self.model, self.kind, signs)

    def table(self) -> np.ndarray:
        return _memo_table(self.model, self.kind)

    def tilt(self) -> np.ndarray:
        """The shared (2^d, d) table x_i s(x)_i: the one form in which the
        samplers, the generators and the coupling bounds read the score."""
        return _memo_tilt(self.model, self.kind)

    def __repr__(self):
        return f"ScoreField({self.model!r}, {self.kind!r})"


@dataclass(frozen=True)
class BetaConstants:
    """Sup norm and single-flip Lipschitz constant of a score field.

    beta1 = max_x ||s(x)||_inf; beta2 = max_{x != y} ||s(x)-s(y)||_inf
    over ||x-y||_1. Adjacent pairs suffice for beta2: along a flip path
    the numerator is subadditive while the denominator adds 2 per flip,
    so the ratio is maximized on an edge of the hypercube.
    """

    beta1: float
    beta2: float


def beta_constants(score: ScoreField) -> BetaConstants:
    """Evaluate (beta1, beta2) from the tabulated score."""
    tab = score.table()
    return BetaConstants(float(np.abs(tab).max()), _adjacent_beta2(tab, flipped=True))


def smooth_beta_constants(score: ScoreField) -> BetaConstants:
    """(beta1, beta2) with beta2 measured away from the flipped coordinate.

    Covers how much s(.)_i can move when some *other* coordinate flips,
    which is the quantity the contraction arguments consume. For the
    glauber score component i never depends on x_i, and the documented
    smooth continuations behave the same way, so this agrees with
    `beta_constants` for those fields. The gibbs transform carries an x_i
    sign factor that jumps by at least log 4 at the flipped coordinate even
    for a constant target, which is a convention artifact rather than
    target roughness; dropping that coordinate removes it.
    """
    tab = score.table()
    return BetaConstants(float(np.abs(tab).max()), _adjacent_beta2(tab, flipped=False))


def _adjacent_beta2(tab: np.ndarray, flipped: bool) -> float:
    """Half the largest change of a table row along one hypercube edge;
    with `flipped=False` the flipped coordinate's own change is left out."""
    beta2 = 0.0
    # one flipped coordinate at a time keeps the work array at the table's size
    for i, nb in enumerate(flip_neighbors(tab.shape[1]).T):
        diff = np.abs(tab - tab[nb])
        if not flipped:
            diff[:, i] = 0.0
        beta2 = max(beta2, float(diff.max()) / 2.0)
    return beta2
