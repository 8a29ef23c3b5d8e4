"""Seeded Monte Carlo chain runner with streaming estimators.

Dimensions up to `TABLE_DIM_CAP` run on packed integer states against
precomputed per-state tables (the hot path for the simulation/matrix
consistency checks); beyond that, states are +-1 coordinate vectors and
scores are evaluated per step from the model's closed forms.

Chains are reproducible: the 64-bit config seed feeds a numpy SeedSequence
whose spawned children, one per chain index, drive independent PCG64
generators. Identical config and seed give identical estimators.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ParameterError
from .models import TargetModel
from .scores import SCORE_KINDS, score_signs, tabulate_scores
from .statespace import BitState, all_signs

TABLE_DIM_CAP = 12

_SCORE_SAMPLERS = ("dula", "dmala", "dups", "dmaps")
_CHAIN_SAMPLERS = ("gibbs",) + _SCORE_SAMPLERS


@dataclass(frozen=True)
class ChainConfig:
    """One simulation request; immutable and fully determining given the seed."""

    sampler: str
    model: TargetModel
    score: str | None
    eta: float
    steps: int
    burn_in: int = 0
    thinning: int = 1
    chains: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.sampler not in _CHAIN_SAMPLERS:
            raise ParameterError(f"unknown sampler {self.sampler!r}")
        if self.sampler in _SCORE_SAMPLERS and self.score not in SCORE_KINDS:
            raise ParameterError(
                f"sampler {self.sampler!r} needs a score kind from {SCORE_KINDS}")
        if not (self.eta > 0.0) or not math.isfinite(self.eta):
            raise ParameterError(f"step size must be positive, got {self.eta}")
        if self.sampler == "gibbs" and math.exp(-2.0 / self.eta) > 1.0 / self.model.dim:
            raise ParameterError(
                "gibbs requires exp(-2/eta) <= 1/d; lower eta or the dimension")
        if not self.steps > self.burn_in >= 0:
            raise ParameterError(
                f"need steps > burn_in >= 0, got steps={self.steps} burn_in={self.burn_in}")
        if self.thinning < 1:
            raise ParameterError(f"thinning must be >= 1, got {self.thinning}")
        if self.chains < 1:
            raise ParameterError(f"chains must be >= 1, got {self.chains}")


@dataclass(eq=False)
class SimResult:
    """Per-chain streaming estimators.

    `marginals[c, i]` estimates P(x_i = +1); `magnetization_histogram[c, u]`
    counts retained samples with u coordinates equal to +1;
    `state_counts` is the retained-state occupancy at table dimensions and
    None otherwise. Acceptance is counted over every step of the chain and
    is identically 1 for the unadjusted samplers. Timing fields are
    informational and excluded from any notion of result equality.
    """

    dim: int
    retained: int
    mean_magnetization: np.ndarray
    marginals: np.ndarray
    magnetization_histogram: np.ndarray
    acceptance_fraction: np.ndarray
    state_counts: np.ndarray | None
    elapsed_seconds: float = 0.0
    steps_per_second: float = 0.0


class _TableStepper:
    """Per-state tables and scalar steps for packed integer states."""

    def __init__(self, model: TargetModel, sampler: str, score: str | None, eta: float):
        d = model.dim
        self.d = d
        self.sampler = sampler
        signs = all_signs(d).astype(np.float64)
        self.signs = signs
        self.pow2 = (np.int64(1) << np.arange(d, dtype=np.int64))
        self.row_sum = signs.sum(axis=1)
        self.plus = (signs > 0)
        if sampler == "gibbs":
            g = tabulate_scores(model, "glauber")
            h = math.exp(-2.0 / eta)
            self.cum = np.cumsum(h * expit(-2.0 * signs * g), axis=1)
        else:
            tab = tabulate_scores(model, score)
            self.tab = tab
            if sampler in ("dula", "dmala"):
                self.q = expit(-2.0 / eta - signs * tab)
            else:
                self.a = float(expit(-2.0 / eta))
                self.q2 = expit(-2.0 / eta - 2.0 * signs * tab)
            if sampler in ("dmala", "dmaps"):
                self.lw = model.log_weight_signs(signs)
            if sampler == "dmala":
                with np.errstate(divide="ignore"):
                    self.logq = np.log(self.q)
                    self.log1mq = np.log1p(-self.q)

    def initial(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, 1 << self.d))

    def step(self, k: int, rng: np.random.Generator) -> tuple[int, bool]:
        if self.sampler == "gibbs":
            i = int(np.searchsorted(self.cum[k], rng.random(), side="right"))
            return (k ^ (1 << i), True) if i < self.d else (k, True)
        if self.sampler == "dula":
            word = int((rng.random(self.d) < self.q[k]) @ self.pow2)
            return k ^ word, True
        if self.sampler == "dmala":
            flips = rng.random(self.d) < self.q[k]
            word = int(flips @ self.pow2)
            if word == 0:
                return k, True
            k2 = k ^ word
            log_fwd = np.where(flips, self.logq[k], self.log1mq[k]).sum()
            log_rev = np.where(flips, self.logq[k2], self.log1mq[k2]).sum()
            log_a = self.lw[k2] - self.lw[k] + log_rev - log_fwd
            if log_a >= 0.0 or rng.random() < math.exp(log_a):
                return k2, True
            return k, False
        # two-stage samplers
        z = k ^ int((rng.random(self.d) < self.a) @ self.pow2)
        k2 = z ^ int((rng.random(self.d) < self.q2[z]) @ self.pow2)
        if self.sampler == "dups":
            return k2, True
        if k2 == k:
            return k, True
        log_a = self.lw[k2] - self.lw[k] + (self.signs[k] - self.signs[k2]) @ self.tab[z]
        if log_a >= 0.0 or rng.random() < math.exp(log_a):
            return k2, True
        return k, False

    def magnetization_sum(self, k: int) -> float:
        return float(self.row_sum[k])

    def plus_mask(self, k: int) -> np.ndarray:
        return self.plus[k]

    def pack(self, k: int) -> int:
        return k


class _VectorStepper:
    """Per-step score evaluation on +-1 coordinate vectors, for large d."""

    def __init__(self, model: TargetModel, sampler: str, score: str | None, eta: float):
        self.model = model
        self.sampler = sampler
        self.score = score
        self.eta = eta
        self.d = model.dim
        self.h = math.exp(-2.0 / eta)
        self.a = float(expit(-2.0 / eta))

    def initial(self, rng: np.random.Generator) -> np.ndarray:
        return (rng.integers(0, 2, self.d) * 2 - 1).astype(np.float64)

    def _flip_probs(self, x: np.ndarray, doubled: bool) -> np.ndarray:
        s = score_signs(self.model, self.score, x)
        scale = 2.0 if doubled else 1.0
        return expit(-2.0 / self.eta - scale * x * s)

    def step(self, x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, bool]:
        m = self.model
        if self.sampler == "gibbs":
            g = m.glauber_score_signs(x)
            cum = np.cumsum(self.h * expit(-2.0 * x * g))
            i = int(np.searchsorted(cum, rng.random(), side="right"))
            if i < self.d:
                x = x.copy()
                x[i] = -x[i]
            return x, True
        if self.sampler in ("dula", "dmala"):
            q = self._flip_probs(x, doubled=False)
            flips = rng.random(self.d) < q
            prop = np.where(flips, -x, x)
            if self.sampler == "dula":
                return prop, True
            if not flips.any():
                return x, True
            with np.errstate(divide="ignore"):
                log_fwd = np.where(flips, np.log(q), np.log1p(-q)).sum()
                q_rev = self._flip_probs(prop, doubled=False)
                log_rev = np.where(flips, np.log(q_rev), np.log1p(-q_rev)).sum()
            log_a = float(m.log_weight_signs(prop) - m.log_weight_signs(x)
                          + log_rev - log_fwd)
            if log_a >= 0.0 or rng.random() < math.exp(log_a):
                return prop, True
            return x, False
        z = np.where(rng.random(self.d) < self.a, -x, x)
        prop = np.where(rng.random(self.d) < self._flip_probs(z, doubled=True), -z, z)
        if self.sampler == "dups":
            return prop, True
        if np.array_equal(prop, x):
            return x, True
        sz = score_signs(self.model, self.score, z)
        log_a = float(m.log_weight_signs(prop) - m.log_weight_signs(x) + (x - prop) @ sz)
        if log_a >= 0.0 or rng.random() < math.exp(log_a):
            return prop, True
        return x, False

    def magnetization_sum(self, x: np.ndarray) -> float:
        return float(x.sum())

    def plus_mask(self, x: np.ndarray) -> np.ndarray:
        return x > 0

    def pack(self, x: np.ndarray) -> int:
        word = 0
        for i in np.flatnonzero(x > 0):
            word |= 1 << int(i)
        return word


def run_chain(cfg: ChainConfig, dump_path: str | None = None) -> SimResult:
    """Run every chain of the config and return streaming estimators.

    With `dump_path`, each retained sample is also written as a CSV row
    (chain, step, packed state as hex, magnetization); meant for small runs.
    """
    d = cfg.model.dim
    table_mode = d <= TABLE_DIM_CAP
    stepper = (_TableStepper if table_mode else _VectorStepper)(
        cfg.model, cfg.sampler, cfg.score, cfg.eta)
    retained_per_chain = 1 + (cfg.steps - cfg.burn_in - 1) // cfg.thinning

    mean_mag = np.zeros(cfg.chains)
    marginals = np.zeros((cfg.chains, d))
    hist = np.zeros((cfg.chains, d + 1), dtype=np.int64)
    acc_frac = np.zeros(cfg.chains)
    counts = np.zeros((cfg.chains, 1 << d), dtype=np.int64) if table_mode else None
    dump_rows = [] if dump_path is not None else None

    started = time.perf_counter()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.chains)
    for c in range(cfg.chains):
        rng = np.random.default_rng(children[c])
        state = stepper.initial(rng)
        accepted = 0
        mag_acc = 0.0
        for t in range(cfg.steps):
            state, ok = stepper.step(state, rng)
            accepted += ok
            if t >= cfg.burn_in and (t - cfg.burn_in) % cfg.thinning == 0:
                s = stepper.magnetization_sum(state)
                mag_acc += s
                marginals[c] += stepper.plus_mask(state)
                hist[c, int(round((s + d) / 2))] += 1
                if counts is not None:
                    counts[c, state] += 1
                if dump_rows is not None:
                    dump_rows.append((c, t, f"{stepper.pack(state):x}", s / d))
        mean_mag[c] = mag_acc / (retained_per_chain * d)
        acc_frac[c] = accepted / cfg.steps
    marginals /= retained_per_chain
    elapsed = time.perf_counter() - started

    if dump_rows is not None:
        with open(dump_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["chain", "step", "state", "magnetization"])
            writer.writerows(dump_rows)

    total_steps = cfg.steps * cfg.chains
    return SimResult(
        dim=d, retained=retained_per_chain, mean_magnetization=mean_mag,
        marginals=marginals, magnetization_histogram=hist,
        acceptance_fraction=acc_frac, state_counts=counts,
        elapsed_seconds=elapsed,
        steps_per_second=total_steps / elapsed if elapsed > 0 else math.inf)


# draws per block of `sample_transitions`; bounds its (block, d) temporaries
_DRAW_BLOCK = 65_536


def sample_transitions(model: TargetModel, sampler: str, score: str | None,
                       eta: float, x: BitState, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """n independent one-step draws from a fixed state, as next-state indices.

    Vectorized across draws (there is no sequential dependence), which is
    what makes million-sample kernel-row checks affordable. Draws are made
    in blocks of `_DRAW_BLOCK`, so memory stays flat in n. Table
    dimensions only.
    """
    d = model.dim
    if d > TABLE_DIM_CAP:
        raise ParameterError(f"transition sampling capped at d <= {TABLE_DIM_CAP}")
    if x.dim != d:
        raise ValueError("state dimension does not match the model")
    st = _TableStepper(model, sampler, score, eta)
    return np.concatenate([_transition_block(st, x.bits, min(_DRAW_BLOCK, n - start), rng)
                           for start in range(0, max(n, 1), _DRAW_BLOCK)])


def _transition_block(st: _TableStepper, k: int, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """n one-step draws from state k, drawing uniforms in the order an
    unblocked call of that size would."""
    d = st.d
    sampler = st.sampler
    if sampler == "gibbs":
        flip_words = np.concatenate([st.pow2, [np.int64(0)]])
        i = np.searchsorted(st.cum[k], rng.random(n), side="right")
        return k ^ flip_words[i]
    if sampler in ("dula", "dmala"):
        flips = rng.random((n, d)) < st.q[k]
        nxt = k ^ (flips @ st.pow2)
        if sampler == "dula":
            return nxt
        log_fwd = np.where(flips, st.logq[k], st.log1mq[k]).sum(axis=1)
        log_rev = np.where(flips, st.logq[nxt], st.log1mq[nxt]).sum(axis=1)
        log_a = st.lw[nxt] - st.lw[k] + log_rev - log_fwd
        accept = np.log(rng.random(n)) < log_a
        return np.where(accept, nxt, k)
    z = k ^ ((rng.random((n, d)) < st.a) @ st.pow2)
    flips2 = rng.random((n, d)) < st.q2[z]
    nxt = z ^ (flips2 @ st.pow2)
    if sampler == "dups":
        return nxt
    moved = st.signs[k][None, :] - st.signs[nxt]
    log_a = st.lw[nxt] - st.lw[k] + (moved * st.tab[z]).sum(axis=1)
    accept = np.log(rng.random(n)) < log_a
    return np.where(accept, nxt, k)
