"""Seeded Monte Carlo chain runner with streaming estimators.

Chains step through one `kernels.Stepper`, built from the config's score
kind, in one loop over blocks of whole steps. Every loop calls the
stepper's one bound step, `step(x, operands)` or `step(x, operands,
carry)`, with a step's operands as one tuple, so a step pays no per-step
attribute lookup or argument unpacking. Dimensions up to `TABLE_DIM_CAP`
run on packed integer states against precomputed per-state tables (the
hot path for the simulation/matrix consistency checks). There every chain
steps alone, one after another in each block, on a Python int with its
table rows as Python lists, so a step makes no numpy call and a run costs
time linear in its chain count.

Beyond the table cap, a target whose `symmetries()` declare every
coordinate permutation (bits, mixture, curieweiss; read through
`TargetModel.exchangeable`) has features that depend on a state only
through x_i and its +1 count. Up to `kernels.LEVEL_DIM_CAP`, its chains
step alone in the same way, on a Python int word against a table of the
d + 1 levels, built once from the closed forms; a step makes no numpy
call. Other targets (Ising grids above the table cap), and exchangeable
ones above the level cap, keep +-1 coordinate vectors that advance in
lockstep, and each step evaluates the model's closed forms once, on the
proposals. The accepted states' features (dmala's score and log
weight, dmaps's log weight) are carried to the next step in the stepper's
carry, not evaluated again; the carry always equals the returned states'
features evaluated afresh, bit for bit. The closed forms at the starting
states are evaluated once, checked for finiteness (`Stepper.start`) and
carried into the first step. Each block of lockstep steps runs with
floating-point overflow raised, so a proposal whose closed forms overflow
stops the run with a ParameterError naming the step. The word steps of
the table and level paths add their Metropolis terms in Python floats,
which overflow without a word; a log acceptance ratio that is not finite
stops the run with the same ParameterError, naming the step and the
chain. A step in which every chain accepts returns the proposals and
their features as they stand, with no accept select. The paths of both
vector forms are tallied as masks of the +1 coordinates.

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
from .kernels import LEVEL_DIM_CAP, Stepper, _check_step, _raising_step_faults
from .models import TargetModel
from .statespace import BitState, all_signs, pack_words, unpack_words

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
        # an unknown score kind fails here, not when the chains start
        _check_step(self.model, self.sampler, self.score, self.eta)
        if not self.steps > self.burn_in >= 0:
            raise ParameterError(
                f"need steps > burn_in >= 0, got steps={self.steps} burn_in={self.burn_in}")
        if self.thinning < 1:
            raise ParameterError(f"thinning must be >= 1, got {self.thinning}")
        if self.chains < 1:
            raise ParameterError(f"chains must be >= 1, got {self.chains}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


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


def _level_path(model: TargetModel) -> bool:
    """Whether chains of the model step alone against a table of its d + 1
    levels: on every exchangeable target above the table cap and up to the
    level cap."""
    return TABLE_DIM_CAP < model.dim <= LEVEL_DIM_CAP and model.exchangeable


def run_chain(cfg: ChainConfig, dump_path: str | None = None) -> SimResult:
    """Run every chain of the config and return streaming estimators.

    Each block draws every chain's uniforms from its own substream and
    steps the chains into one buffer of paths and accept flags; the same
    code then counts, tallies and dumps from it. The model alone picks how
    chains step: alone on table words up to `TABLE_DIM_CAP`, alone on level
    words for exchangeable targets up to `kernels.LEVEL_DIM_CAP`, and in
    lockstep on +-1 vectors otherwise. The level path gives the estimators
    of the +-1 lockstep step, except where an accept test falls within a
    few ulps of its threshold: dmala's base and the grouped dot products
    round differently.

    With `dump_path`, each retained sample is also written as a CSV row
    (chain, step, packed state as hex, magnetization); meant for small runs.
    """
    d = cfg.model.dim
    chains = cfg.chains
    table_mode = d <= TABLE_DIM_CAP
    alone = table_mode or _level_path(cfg.model)
    st = Stepper(cfg.model, cfg.sampler, cfg.score, cfg.eta, table_mode, alone)
    m = st.uniforms_per_step
    block = max(1, _UNIFORM_BLOCK // m)
    blocks = [(t0, min(block, cfg.steps - t0)) for t0 in range(0, cfg.steps, block)]
    retained_per_chain = 1 + (cfg.steps - cfg.burn_in - 1) // cfg.thinning

    def retained(t0: int, n: int) -> np.ndarray:
        steps = np.arange(t0, t0 + n)
        return steps[(steps >= cfg.burn_in) & ((steps - cfg.burn_in) % cfg.thinning == 0)]

    rngs = [np.random.default_rng(child)
            for child in np.random.SeedSequence(cfg.seed).spawn(chains)]
    # table paths are packed words; the others are masks of the +1 coordinates
    if table_mode:
        words = [int(rng.integers(0, 1 << d)) for rng in rngs]
        counts = np.zeros((chains, 1 << d), dtype=np.int64)
        trace = np.empty((block, chains), dtype=np.int64)
    else:
        states = np.array([rng.integers(0, 2, d) * 2 - 1 for rng in rngs],
                          dtype=np.float64)
        # level rows were checked whole when `st` was built; lockstep chains
        # check what a step reads at their own starting states
        if alone:
            words = pack_words(states > 0)
        else:
            carry = st.start(states)
        plus_counts = np.zeros((chains, d), dtype=np.int64)
        hist = np.zeros((chains, d + 1), dtype=np.int64)
        trace = np.empty((block, chains, d), dtype=bool)
    oks = np.empty((block, chains), dtype=bool)
    accepted = np.zeros(chains, dtype=np.int64)
    dumped = [] if dump_path is not None else None
    # the one bound step, called with each step's operand tuple at a fixed arity
    step = st.step
    for t0, n in blocks:
        u = [rng.random((n, m)) for rng in rngs]
        if alone:
            with _raising_step_faults(cfg.model, cfg.sampler,
                                      lambda: f"at step {t0 + len(path)} of chain {c}"):
                for c in range(chains):
                    x = words[c]
                    path, flags = [], []
                    to_path, to_flags = path.append, flags.append
                    for operands in zip(*st.prepare(u[c])):
                        x, ok, _, _, _ = step(x, operands)
                        to_path(x)
                        to_flags(ok)
                    words[c] = x
                    trace[:n, c] = path if table_mode else unpack_words(path, d)
                    oks[:n, c] = flags
        else:
            t = 0
            with _raising_step_faults(cfg.model, cfg.sampler, lambda: f"at step {t0 + t}"):
                for t, operands in enumerate(zip(*st.prepare(np.stack(u, axis=1)))):
                    states, ok, _, _, carry = step(states, operands, carry)
                    trace[t] = states > 0
                    oks[t] = ok
        accepted += oks[:n].sum(axis=0)
        kept = trace[retained(t0, n) - t0]
        if table_mode:
            counts += np.bincount((kept + (np.arange(chains) << d)).ravel(),
                                  minlength=chains << d).reshape(chains, 1 << d)
        else:
            plus_counts += kept.sum(axis=0)
            hist += np.bincount((kept.sum(axis=2) + (d + 1) * np.arange(chains)).ravel(),
                                minlength=chains * (d + 1)).reshape(chains, d + 1)
        if dumped is not None:
            dumped.append(kept)

    if table_mode:
        plus_table = all_signs(d) > 0
        plus_counts = counts @ plus_table
        hist = counts @ (plus_table.sum(axis=1)[:, None] == np.arange(d + 1))
    magnetization = hist @ (2 * np.arange(d + 1) - d)

    if dumped is not None:
        _write_dump(dump_path, np.concatenate([retained(t0, n) for t0, n in blocks]),
                    np.concatenate(dumped).swapaxes(0, 1), d)

    return SimResult(
        dim=d, retained=retained_per_chain,
        mean_magnetization=magnetization / (retained_per_chain * d),
        marginals=plus_counts / retained_per_chain, magnetization_histogram=hist,
        acceptance_fraction=accepted / cfg.steps,
        state_counts=counts if table_mode else None)


def _write_dump(path: str, steps: np.ndarray, chain_states: np.ndarray, d: int) -> None:
    """Retained samples in chain-major order, from their steps and each
    chain's states there, as packed words or as masks of the +1 coordinates."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["chain", "step", "state", "magnetization"])
        for c, states in enumerate(chain_states):
            words = states.tolist() if states.ndim == 1 else pack_words(states)
            for t, word in zip(steps.tolist(), words):
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
    model._check_state(x)
    if n < 0:
        raise ParameterError(f"draw count must be >= 0, got {n}")
    st = Stepper(model, sampler, score, eta, tables=True)
    out = []
    with _raising_step_faults(model, sampler, lambda: f"from state {x.bits:#x}"):
        for start in range(0, max(n, 1), _DRAW_BLOCK):
            size = min(_DRAW_BLOCK, n - start)
            u = rng.random((size, st.uniforms_per_step))
            # one state against a block of uniforms broadcasts to a block of draws
            out.append(st.step(np.int64(x.bits), st.prepare(u))[0])
    return np.concatenate(out)
