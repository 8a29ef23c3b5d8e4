"""Event-driven simulation of single-flip jump processes on the hypercube.

Holding times are exponential with the total exit rate and the flipped
coordinate is drawn proportionally to its rate (rates are bounded by d for
the target-reversible dynamics, so per-event cost stays O(d)). The one-step
comparison against dense kernels lives in `discretization_residual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapabilityError, ParameterError
from .kernels import GeneratorMatrix, KernelMatrix
from .models import TargetModel
from .scores import MAX_TABLE_DIM, tabulate_scores
from .statespace import BitState, all_signs

RateFunction = Callable[[BitState], np.ndarray]

# trajectories store each visited state as a packed int64 word
MAX_WORD_DIM = 63


def _check_word_dim(dim: int) -> None:
    if dim > MAX_WORD_DIM:
        raise CapabilityError(
            f"jump trajectories store packed int64 words, capped at d <= {MAX_WORD_DIM}, "
            f"got {dim}")


@dataclass(frozen=True)
class Trajectory:
    """A realized jump path over [0, horizon].

    `states[0]` is the initial state at time 0; `states[j+1]` is entered at
    `times[j]`. Consecutive states differ in exactly one coordinate.
    """

    times: np.ndarray
    states: np.ndarray
    dim: int
    horizon: float

    def state_at(self, j: int) -> BitState:
        return BitState(int(self.states[j]), self.dim)


def glauber_rates(model: TargetModel) -> RateFunction:
    """Per-coordinate flip rates sigma(-2 x_i g(x)_i) for the given target.

    Up to the score-table cap the rates are precomputed for every state,
    which makes long runs cheap; above it they are evaluated per state from
    the model's closed-form glauber score.
    """
    from scipy.special import expit

    _check_word_dim(model.dim)
    if model.dim <= MAX_TABLE_DIM:
        tab = tabulate_scores(model, "glauber")
        signs = all_signs(model.dim).astype(np.float64)
        rates = expit(-2.0 * signs * tab)
        rates.setflags(write=False)
        return lambda x: rates[x.bits]

    def rates_at(x: BitState) -> np.ndarray:
        signs = x.signs().astype(np.float64)
        return expit(-2.0 * signs * model.glauber_score_signs(signs))

    return rates_at


def ctmc_simulate(rates: RateFunction, x0: BitState, horizon: float,
                  rng: np.random.Generator) -> Trajectory:
    """Simulate the jump process started at x0 up to the given horizon."""
    _check_word_dim(x0.dim)
    if not (horizon > 0.0) or not math.isfinite(horizon):
        raise ParameterError(f"horizon must be positive and finite, got {horizon}")
    times: list[float] = []
    words: list[int] = [x0.bits]
    x = x0
    t = 0.0
    while True:
        r = np.asarray(rates(x), dtype=np.float64)
        if r.min() < 0.0:
            raise ParameterError("rates must be nonnegative")
        total = float(r.sum())
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t > horizon:
            break
        i = int(np.searchsorted(np.cumsum(r), rng.random() * total, side="right"))
        i = min(i, x.dim - 1)  # guard against roundoff at the top of the cumsum
        x = x.flip(i)
        times.append(t)
        words.append(x.bits)
    return Trajectory(np.asarray(times), np.asarray(words, dtype=np.int64), x0.dim, horizon)


def occupation_measure(traj: Trajectory) -> np.ndarray:
    """Fraction of time spent in each state, as a length-2^d vector."""
    bounds = np.concatenate(([0.0], traj.times, [traj.horizon]))
    durations = np.diff(bounds)
    occ = np.zeros(1 << traj.dim)
    np.add.at(occ, traj.states, durations)
    return occ / traj.horizon


def discretization_residual(kernel: KernelMatrix, generator: GeneratorMatrix) -> float:
    """Max-row L1 distance between a one-step kernel and I + h Q.

    h is exp(-2/eta) for the kernel's own step size. The max-row L1 norm
    matches the total-variation flavor of kernel comparisons.
    """
    if kernel.probs.shape != generator.rates.shape:
        raise ValueError("kernel and generator dimensions differ")
    h = math.exp(-2.0 / kernel.eta)
    discretized = np.eye(kernel.probs.shape[0]) + h * generator.rates
    return float(np.abs(kernel.probs - discretized).sum(axis=1).max())


def kernel_deviation(a: KernelMatrix, b: KernelMatrix) -> float:
    """Max-row L1 distance between two kernels on the same state space."""
    if a.probs.shape != b.probs.shape:
        raise ValueError("kernel dimensions differ")
    return float(np.abs(a.probs - b.probs).sum(axis=1).max())
