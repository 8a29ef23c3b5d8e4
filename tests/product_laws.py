"""Exact laws of the dula and dups chains on IndependentBits(beta, d).

The target is a product measure: each coordinate is +1 with probability
sigma(2 beta), alone. Every score's tilt t(x) = x_i s(x)_i then depends on
x_i alone, t(x_i) = x_i beta + lag, where lag is 0 for the glauber and stein
scores and log(2 cosh beta) for gibbs, whose score is softplus(2 x_i beta)
in x_i's direction. A stage of weight c flips each coordinate on its own,
with probability sigma(-2/eta - c t(x_i)): dula is one stage with c = 1,
dups a stage with c = 0 followed by one with c = 2. So each kernel is the
d-fold product of one 2x2 kernel that flips +1 with probability a and -1
with probability b, and from (a, b) come

* the stationary law, Bernoulli(b / (a + b)) in each coordinate;
* its Hamming-W1 to the target, d sigma(-2 beta) |a e^{2 beta} - b| / (a + b),
  with the difference a e^{2 beta} - b in a closed form, never as the
  difference of two rounded laws;
* the contraction coefficient and the second eigenvalue modulus, both
  |1 - a - b|, which is the product of the stages' |1 - a_c - b_c|, and
  whose log keeps the deficit 1 - kappa at small eta.

Written from the definitions alone, importing no cubelab code, and kept in
the log domain, so small step sizes underflow nothing but the result.
"""

import math

import numpy as np

SAMPLERS = ("dula", "dups")


def _log_sigmoid(z: float) -> float:
    return -float(np.logaddexp(0.0, -z))


def _log_abs_one_minus_exp(l: float) -> float:
    """log |1 - e^l|, each branch where it keeps its digits."""
    if l > 0.0:
        return math.log(math.expm1(l))
    return math.log1p(-math.exp(l)) if l < -math.log(2.0) else math.log(-math.expm1(l))


def _lag(score: str, beta: float) -> float:
    """The tilt's offset from x_i beta: t(x_i) = x_i beta + lag."""
    if score not in ("glauber", "stein", "gibbs"):
        raise ValueError(f"unknown score {score!r}")
    return float(np.logaddexp(beta, -beta)) if score == "gibbs" else 0.0


def _stages(sampler: str) -> tuple:
    if sampler not in SAMPLERS:
        raise ValueError(f"no product law for sampler {sampler!r}")
    return (1.0,) if sampler == "dula" else (0.0, 2.0)


def _log_stage_flips(c: float, score: str, beta: float, eta: float) -> tuple:
    """(log a_c, log b_c): the log-probabilities that a stage of weight c
    flips a coordinate at +1 and at -1."""
    lag = _lag(score, beta)
    return tuple(_log_sigmoid(-2.0 / eta - c * (x * beta + lag)) for x in (1.0, -1.0))


def log_flips(sampler: str, score: str, beta: float, eta: float) -> tuple:
    """(log a, log b): the log-probabilities that one step flips a
    coordinate at +1 and at -1. For dups, a is a0 (1 - b2) + (1 - a0) a2,
    flipped by the first stage and not back, or only by the second."""
    stages = [_log_stage_flips(c, score, beta, eta) for c in _stages(sampler)]
    if len(stages) == 1:
        return stages[0]
    (la0, lb0), (la2, lb2) = stages
    stay = _log_abs_one_minus_exp
    return (float(np.logaddexp(la0 + stay(lb2), stay(la0) + la2)),
            float(np.logaddexp(lb0 + stay(la2), stay(lb0) + lb2)))


def log_plus_probability(sampler: str, score: str, beta: float, eta: float) -> float:
    """Log of the stationary P(x_i = +1) = b / (a + b) of one coordinate."""
    la, lb = log_flips(sampler, score, beta, eta)
    return lb - float(np.logaddexp(la, lb))


def _log_abs_bias(sampler: str, score: str, beta: float, eta: float) -> float:
    """log |a e^{2 beta} - b|, from the closed form of the difference.

    With u = 2/eta and D(y) = 1 + e^{-u - y}, dula gives
    expm1(2 beta) e^{-2u - 2 lag} / (D(beta + lag) D(-beta + lag)); dups gives
    expm1(2 beta) e^{-u} expm1(-2 lag) expm1(-2 lag - u)
    / ((1 + e^{-u}) D(2 beta + 2 lag) D(-2 beta + 2 lag)), which is 0 for
    the glauber and stein scores, whose lag is 0.
    """
    u, lag = 2.0 / eta, _lag(score, beta)

    def log_abs_expm1(y):
        return math.log(abs(math.expm1(y))) if y else -math.inf

    def log_d(y):
        return float(np.logaddexp(0.0, -u - y))

    if sampler == "dula":
        rest = -2.0 * u - 2.0 * lag - log_d(beta + lag) - log_d(-beta + lag)
    else:
        rest = (-u + log_abs_expm1(-2.0 * lag) + log_abs_expm1(-2.0 * lag - u)
                - log_d(0.0) - log_d(2.0 * beta + 2.0 * lag) - log_d(-2.0 * beta + 2.0 * lag))
    return log_abs_expm1(2.0 * beta) + rest


def stationary_w1(sampler: str, score: str, beta: float, eta: float, dim: int) -> float:
    """Hamming-W1 between the stationary law and the target:
    d |b / (a + b) - sigma(2 beta)| = d sigma(-2 beta) |a e^{2 beta} - b| / (a + b)."""
    la, lb = log_flips(sampler, score, beta, eta)
    return dim * math.exp(_log_sigmoid(-2.0 * beta) + _log_abs_bias(sampler, score, beta, eta)
                          - float(np.logaddexp(la, lb)))


def log_kappa(sampler: str, score: str, beta: float, eta: float) -> float:
    """log |1 - a - b|, summed over the stages: the log of both the
    contraction coefficient and the second eigenvalue modulus, kept to full
    relative precision in 1 - kappa = -expm1(log kappa) at small eta."""
    flips = (_log_stage_flips(c, score, beta, eta) for c in _stages(sampler))
    return sum(_log_abs_one_minus_exp(float(np.logaddexp(la, lb))) for la, lb in flips)


def kappa(sampler: str, score: str, beta: float, eta: float) -> float:
    return math.exp(log_kappa(sampler, score, beta, eta))

