"""Event-driven simulation of single-flip jump processes on the hypercube.

Holding times are exponential with the total exit rate and the flipped
coordinate is drawn proportionally to its rate. Rates must depend on the
state alone: each distinct state's rate vector is evaluated and checked once
and its jump law (total rate, cumulative rates) is memoized by packed word,
so an event costs a dict lookup and a bisection, with no numpy call. The
exponentials and uniforms are drawn from the generator in blocks. The
one-step comparison against dense kernels lives in `discretization_residual`.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapabilityError, ParameterError
from .kernels import GeneratorMatrix, KernelMatrix
from .models import TargetModel
from .scores import MAX_TABLE_DIM, ScoreField
from .statespace import MAX_EXACT_DIM, BitState

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

    Up to the score-table cap the rates are precomputed for every state from
    the glauber tilt table, which makes long runs cheap; above it they are
    evaluated per state from the model's closed form, which the table holds.
    """
    from scipy.special import expit

    _check_word_dim(model.dim)
    if model.dim <= MAX_TABLE_DIM:
        rates = expit(-2.0 * ScoreField(model, "glauber").tilt())
        rates.setflags(write=False)
        return lambda x: rates[x.bits]

    def rates_at(x: BitState) -> np.ndarray:
        signs = x.signs().astype(np.float64)
        return expit(-2.0 * signs * model.glauber_score_signs(signs))

    return rates_at


# exponentials and uniforms drawn per block of `ctmc_simulate`
_DRAW_BLOCK = 4096
# jump laws memoized per run before the memo is cleared; holds every state
# at d <= 12 and stays under ~10 MB at d = 63 (63 boxed floats per law)
_LAW_MEMO = 4096


def ctmc_simulate(rates: RateFunction, x0: BitState, horizon: float,
                  rng: np.random.Generator) -> Trajectory:
    """Simulate the jump process started at x0 up to the given horizon.

    `rates(x)` must depend on x alone. It is called once per distinct state
    (again only after the bounded memo is cleared), and its vector must
    hold d finite, nonnegative rates, else `ParameterError`. Holding-time
    exponentials and coordinate uniforms are drawn from `rng` in blocks of
    `_DRAW_BLOCK`, so a fixed generator state gives a fixed trajectory.
    """
    _check_word_dim(x0.dim)
    if not (horizon > 0.0) or not math.isfinite(horizon):
        raise ParameterError(f"horizon must be positive and finite, got {horizon}")
    d = x0.dim
    laws: dict[int, tuple[float, list[float]]] = {}

    def jump_law(x: int) -> tuple[float, list[float]]:
        r = np.asarray(rates(BitState(x, d)), dtype=np.float64)
        if r.shape != (d,):
            raise ParameterError(f"rates have shape {r.shape} at a d = {d} state, expected ({d},)")
        total = float(r.sum())
        # a NaN or inf total would never pass the horizon
        if not (r.min() >= 0.0 and math.isfinite(total)):
            raise ParameterError("rates must be finite and nonnegative")
        if len(laws) >= _LAW_MEMO:
            laws.clear()
        law = laws[x] = (total, np.cumsum(r).tolist())
        return law

    # the jumps of one draw block are appended to lists, then moved into typed
    # buffers of 16 bytes per jump (a list of boxed values holds ~86 at peak)
    times = array("d")
    words = array("q", [x0.bits])
    new_times: list[float] = []
    new_words: list[int] = []
    exps: list[float] = []
    unis: list[float] = []
    j = 0
    x = x0.bits
    t = 0.0
    while True:
        total, cum = laws.get(x) or jump_law(x)
        if total <= 0.0:
            break
        if j == len(exps):
            times.fromlist(new_times)
            words.fromlist(new_words)
            new_times.clear()
            new_words.clear()
            exps = rng.standard_exponential(_DRAW_BLOCK).tolist()
            unis = rng.random(_DRAW_BLOCK).tolist()
            j = 0
        t += exps[j] / total
        if t > horizon:
            break
        # guard against roundoff at the top of the cumsum
        i = bisect_right(cum, unis[j] * total)
        if i == d:
            i = d - 1
        j += 1
        x ^= 1 << i
        new_times.append(t)
        new_words.append(x)
    times.fromlist(new_times)
    words.fromlist(new_words)
    return Trajectory(np.frombuffer(times, dtype=np.float64),
                      np.frombuffer(words, dtype=np.int64), d, horizon)


def occupation_measure(traj: Trajectory) -> np.ndarray:
    """Fraction of time spent in each state, as a length-2^d vector."""
    if traj.dim > MAX_EXACT_DIM:
        raise CapabilityError(
            f"occupation measures are indexed by state, capped at d <= {MAX_EXACT_DIM}, "
            f"got {traj.dim}")
    durations = np.diff(np.concatenate(([0.0], traj.times, [traj.horizon])))
    occ = np.bincount(traj.states, weights=durations, minlength=1 << traj.dim)
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
