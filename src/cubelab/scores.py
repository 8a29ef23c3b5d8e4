"""The three score families and their regularity constants.

A score assigns each state a vector s(x) in R^d:

* glauber: half the log-weight difference between the two values of each
  coordinate, s(x)_i = (log w(+1, x_-i) - log w(-1, x_-i)) / 2. Computed
  from log-weight differences, so normalization cancels.
* gibbs: the transform s(x)_i = x_i log(1 + exp(2 x_i g(x)_i)) of the
  glauber score g; always satisfies x_i s(x)_i >= 0.
* stein: the gradient of the model's documented smooth continuation of its
  log weight. The continuation is a per-model choice, not canonical.

Tables over all 2^d states back the dense kernel builders and the constant
evaluators; they are built once per (model, kind) and marked read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ParameterError
from .models import TargetModel
from .statespace import BitState, all_signs

SCORE_KINDS = ("stein", "gibbs", "glauber")

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


def _gibbs_transform(signs: np.ndarray, glauber: np.ndarray) -> np.ndarray:
    """x_i log(1 + exp(2 x_i g_i)) for float signs x and glauber scores g."""
    return signs * np.logaddexp(0.0, 2.0 * signs * glauber)


def gibbs_score(model: TargetModel, x: BitState) -> np.ndarray:
    """The softplus transform of the glauber score."""
    return _gibbs_transform(x.signs().astype(np.float64), glauber_score(model, x))


def stein_score(model: TargetModel, x: BitState) -> np.ndarray:
    """Gradient of the model's smooth continuation at x."""
    return model.stein_score_signs(x.signs().astype(np.float64))


def score_signs(model: TargetModel, kind: str, signs: np.ndarray) -> np.ndarray:
    """Vectorized score of the given kind over (..., d) sign arrays."""
    if kind == "glauber":
        return model.glauber_score_signs(signs)
    if kind == "gibbs":
        return _gibbs_transform(np.asarray(signs, dtype=np.float64),
                                model.glauber_score_signs(signs))
    if kind == "stein":
        return model.stein_score_signs(signs)
    raise ParameterError(f"unknown score kind {kind!r}, expected one of {SCORE_KINDS}")


def tabulate_scores(model: TargetModel, kind: str) -> np.ndarray:
    """Score table of shape (2^d, d), row k = s(state k); read-only.

    The glauber rows come from log-weight differences over the enumerated
    state table (the defining formula), the gibbs rows from transforming
    them, the stein rows from the model's closed form. Each call builds
    afresh; `ScoreField.table()` is the memoized route.
    """
    d = model.dim
    if d > MAX_TABLE_DIM:
        raise CapabilityError(f"score tables capped at d <= {MAX_TABLE_DIM}, got {d}")
    if kind not in SCORE_KINDS:
        raise ParameterError(f"unknown score kind {kind!r}, expected one of {SCORE_KINDS}")
    signs = all_signs(d).astype(np.float64)
    if kind == "stein":
        tab = model.stein_score_signs(signs)
    else:
        lw = model.log_weight_signs(signs)
        ks = np.arange(1 << d)
        tab = np.empty((1 << d, d))
        for i in range(d):
            bit = 1 << i
            tab[:, i] = 0.5 * (lw[ks | bit] - lw[ks & ~bit])
        if kind == "gibbs":
            tab = _gibbs_transform(signs, tab)
    tab = np.ascontiguousarray(tab)
    tab.setflags(write=False)
    return tab


# a table depends on the (model, kind) pair alone, so equal models share one;
# sixteen d = 16 tables hold ~134 MB
@functools.lru_cache(maxsize=16)
def _memo_table(model: TargetModel, kind: str) -> np.ndarray:
    # looked up per call, so a replaced `tabulate_scores` counts real builds
    return tabulate_scores(model, kind)


class ScoreField:
    """One (model, kind) pair with lazy tabulation.

    Evaluation is pure. `table()` reads a bounded memo keyed on the
    (model, kind) pair, so every field of equal models shares one read-only
    table, built on first use, without the fields being passed around.
    """

    def __init__(self, model: TargetModel, kind: str):
        if kind not in SCORE_KINDS:
            raise ParameterError(f"unknown score kind {kind!r}, expected one of {SCORE_KINDS}")
        self.model = model
        self.kind = kind

    def __call__(self, x: BitState) -> np.ndarray:
        if self.kind == "glauber":
            return glauber_score(self.model, x)
        if self.kind == "gibbs":
            return gibbs_score(self.model, x)
        return stein_score(self.model, x)

    def signs(self, signs: np.ndarray) -> np.ndarray:
        return score_signs(self.model, self.kind, signs)

    def table(self) -> np.ndarray:
        return _memo_table(self.model, self.kind)

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
    n, d = tab.shape
    ks = np.arange(n)
    beta2 = 0.0
    for i in range(d):
        diff = np.abs(tab - tab[ks ^ (1 << i)])
        if not flipped:
            diff[:, i] = 0.0
        beta2 = max(beta2, float(diff.max()) / 2.0)
    return beta2
