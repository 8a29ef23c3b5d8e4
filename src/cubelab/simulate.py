"""Seeded Monte Carlo chain runner with streaming estimators.

All chains of a run advance in lockstep, one batched `kernels.Stepper` step
at a time. Dimensions up to `TABLE_DIM_CAP` run on packed integer states
against precomputed per-state tables (the hot path for the
simulation/matrix consistency checks); beyond that, states are +-1
coordinate vectors, and each step evaluates the model's closed forms once,
on the proposals. The accepted states' features (dmala's score and log
weight, dmaps's log weight) are carried to the next step in the stepper's
carry, not evaluated again.

Chains are reproducible: the 64-bit config seed feeds a numpy SeedSequence
whose spawned children, one per chain index, drive independent PCG64
generators. Each chain draws its initial state and then a fixed number of
uniforms per step (gibbs 1, dula d, dmala d + 1, dups 2d, dmaps 2d + 1)
from its own generator only, in blocks of whole steps, so its path does not
depend on how many chains run beside it. Identical config and seed give
identical estimators.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ParameterError
from .kernels import SCORE_FREE, STEP_SAMPLERS, Stepper, _check_eta, _gibbs_step_size
from .models import TargetModel
from .scores import SCORE_KINDS, ScoreField
from .statespace import BitState, all_signs

TABLE_DIM_CAP = 12


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
        if self.sampler not in STEP_SAMPLERS:
            raise ParameterError(f"unknown sampler {self.sampler!r}")
        if self.sampler not in SCORE_FREE and self.score not in SCORE_KINDS:
            raise ParameterError(
                f"sampler {self.sampler!r} needs a score kind from {SCORE_KINDS}")
        _check_eta(self.eta)
        if self.sampler == "gibbs":
            _gibbs_step_size(self.model, self.eta)
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
    is identically 1 for the unadjusted samplers.
    """

    dim: int
    retained: int
    mean_magnetization: np.ndarray
    marginals: np.ndarray
    magnetization_histogram: np.ndarray
    acceptance_fraction: np.ndarray
    state_counts: np.ndarray | None


# uniforms each chain draws per block of `run_chain`; bounds memory at any d
_UNIFORM_BLOCK = 1 << 14


def _stepper(model: TargetModel, sampler: str, score: str | None, eta: float,
             tables: bool) -> Stepper:
    field = None if sampler in SCORE_FREE else ScoreField(model, score)
    return Stepper(model, sampler, field, eta, tables)


def run_chain(cfg: ChainConfig, dump_path: str | None = None) -> SimResult:
    """Run every chain of the config in lockstep and return streaming estimators.

    With `dump_path`, each retained sample is also written as a CSV row
    (chain, step, packed state as hex, magnetization); meant for small runs.
    """
    d = cfg.model.dim
    chains = cfg.chains
    table_mode = d <= TABLE_DIM_CAP
    st = _stepper(cfg.model, cfg.sampler, cfg.score, cfg.eta, table_mode)
    m = st.uniforms_per_step
    block = max(1, _UNIFORM_BLOCK // m)
    retained_per_chain = 1 + (cfg.steps - cfg.burn_in - 1) // cfg.thinning

    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(cfg.seed).spawn(chains)]
    if table_mode:
        states = np.array([rng.integers(0, 1 << d) for rng in rngs], dtype=np.int64)
        counts = np.zeros((chains, 1 << d), dtype=np.int64)
    else:
        states = np.array([rng.integers(0, 2, d) * 2 - 1 for rng in rngs], dtype=np.float64)
        plus_counts = np.zeros((chains, d), dtype=np.int64)
        hist = np.zeros((chains, d + 1), dtype=np.int64)
    # a single chain steps on unbatched states, whose table reads are cheaper
    if chains == 1:
        states = states[0]
    trace = np.empty((block,) + states.shape, dtype=states.dtype)
    oks = np.empty((block, chains), dtype=bool)
    accepted = np.zeros(chains, dtype=np.int64)
    dumped = [] if dump_path is not None else None
    carry = None

    for t0 in range(0, cfg.steps, block):
        n = min(block, cfg.steps - t0)
        u = np.stack([rng.random((n, m)) for rng in rngs], axis=1)
        for t, operands in enumerate(zip(*st.prepare(u[:, 0] if chains == 1 else u))):
            # positional: a keyword argument costs a dict per step
            states, ok, _, _, carry = st.step(states, *operands, carry)
            trace[t] = states
            oks[t] = ok
        accepted += oks[:n].sum(axis=0)
        steps = np.arange(t0, t0 + n)
        steps = steps[(steps >= cfg.burn_in) & ((steps - cfg.burn_in) % cfg.thinning == 0)]
        kept = trace[steps - t0].reshape(steps.size, chains, *([] if table_mode else [d]))
        if table_mode:
            counts += np.bincount((kept + (np.arange(chains) << d)).ravel(),
                                  minlength=chains << d).reshape(chains, 1 << d)
        else:
            kept = kept > 0
            plus_counts += kept.sum(axis=0)
            hist += np.bincount((kept.sum(axis=2) + (d + 1) * np.arange(chains)).ravel(),
                                minlength=chains * (d + 1)).reshape(chains, d + 1)
        if dumped is not None:
            dumped.append((steps, kept))

    if table_mode:
        plus_table = all_signs(d) > 0
        plus_counts = counts @ plus_table
        hist = counts @ (plus_table.sum(axis=1)[:, None] == np.arange(d + 1))
    magnetization = hist @ (2 * np.arange(d + 1) - d)

    if dumped is not None:
        _write_dump(dump_path, dumped, d)

    return SimResult(
        dim=d, retained=retained_per_chain,
        mean_magnetization=magnetization / (retained_per_chain * d),
        marginals=plus_counts / retained_per_chain, magnetization_histogram=hist,
        acceptance_fraction=accepted / cfg.steps,
        state_counts=counts if table_mode else None)


def _write_dump(path: str, dumped: list, d: int) -> None:
    """Retained samples in chain-major order, from (steps, states) blocks whose
    states are packed words or masks of the +1 coordinates."""
    steps = np.concatenate([s for s, _ in dumped])
    kept = np.concatenate([k for _, k in dumped])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain", "step", "state", "magnetization"])
        for c in range(kept.shape[1]):
            for t, state in zip(steps.tolist(), kept[:, c]):
                word = int(state) if state.ndim == 0 else int.from_bytes(
                    np.packbits(state, bitorder="little").tobytes(), "little")
                writer.writerow((c, t, f"{word:x}", (2 * word.bit_count() - d) / d))


# draws per block of `sample_transitions`; a block holds all m uniforms of
# each draw plus per-draw table rows, and this size keeps those temporaries
# within ~10 MB at d = 10
_DRAW_BLOCK = 16_384


def sample_transitions(model: TargetModel, sampler: str, score: str | None,
                       eta: float, x: BitState, n: int,
                       rng: np.random.Generator) -> np.ndarray:
    """n independent one-step draws from a fixed state, as next-state indices.

    All draws are one batched step from x (there is no sequential
    dependence), which is what makes million-sample kernel-row checks
    affordable. Draws are made in blocks of `_DRAW_BLOCK`, so memory stays
    flat in n. Table dimensions only.
    """
    d = model.dim
    if d > TABLE_DIM_CAP:
        raise CapabilityError(f"transition sampling capped at d <= {TABLE_DIM_CAP}, got {d}")
    if x.dim != d:
        raise ValueError("state dimension does not match the model")
    st = _stepper(model, sampler, score, eta, tables=True)
    out = []
    for start in range(0, max(n, 1), _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, n - start)
        u = rng.random((size, st.uniforms_per_step))
        # one state against a block of uniforms broadcasts to a block of draws
        out.append(st.step(np.int64(x.bits), *st.prepare(u))[0])
    return np.concatenate(out)
