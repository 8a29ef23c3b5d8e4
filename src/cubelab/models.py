"""The four target families as unnormalized log-densities over {-1,+1}^d.

Every model is strictly positive; `log_weight_table` rejects a log weight
that overflows. All arithmetic stays in the log domain; normalization
subtracts the maximum before exponentiating (Curie-Weiss at beta = 1, d = 9
already reaches e^81).

Vectorized entry points take arrays of +-1 coordinates with an arbitrary
leading shape; the scalar `log_weight` wraps them for a single BitState.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .statespace import BitState, all_signs


class TargetModel:
    """Common surface of the target families.

    Subclasses provide `log_weight_signs` (the unnormalized log-density),
    plus closed-form single-flip and smooth-continuation gradients used by
    the score machinery, and a class attribute `name`, the family's
    `--model` choice. Instances are frozen dataclasses with finite
    parameters, whose fields in order are the family's constructor and
    command-line parameters: immutable and hashable, so equal instances
    share one memoized log-weight table and one score table per kind.
    Evaluation is pure. `symmetries()` is the one place a family declares
    its isometries; `exchangeable` is read from them.
    """

    dim: int
    name: str

    def log_weight_signs(self, signs: np.ndarray) -> np.ndarray:
        """Unnormalized log-density for (..., d) arrays of +-1 coordinates."""
        raise NotImplementedError

    def glauber_score_signs(self, signs: np.ndarray) -> np.ndarray:
        """Closed form of the half log-weight difference per coordinate."""
        raise NotImplementedError

    def stein_score_signs(self, signs: np.ndarray) -> np.ndarray:
        """Gradient of this model's smooth continuation of the log-density."""
        raise NotImplementedError

    def symmetries(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Generators of cube isometries that leave the log weight unchanged.

        Each generator is `(sigma, flip_mask)`: state word k maps to the word
        with bit sigma[i] equal to bit i of k, XORed with `flip_mask`. The
        default declares none. Every dense kernel of the model carries them
        and is checked on them; the dmaps builder also needs each score's
        tilt x_i s(x)_i to move with the coordinates, and checks it first.
        """
        return ()

    @property
    def exchangeable(self) -> bool:
        """Whether `symmetries()` declares every coordinate permutation
        (`permutes_every_coordinate`); chain runs read it to pick their path."""
        return permutes_every_coordinate(self.dim, self.symmetries())

    def _check_state(self, x: BitState) -> None:
        """ValueError unless x is a state of this model's dimension."""
        if x.dim != self.dim:
            raise ValueError(f"state dimension {x.dim} != model dimension {self.dim}")

    def log_weight(self, x: BitState) -> float:
        self._check_state(x)
        return float(self.log_weight_signs(x.signs().astype(np.float64)))


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")


def _check_finite(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


# grids up to this many sites sum neighbours with one product against their
# dense adjacency matrix (at most 32 KB): a small step is bound by its count
# of numpy calls, not its arithmetic; larger grids keep O(d) slice adds
_DENSE_GRID_SITES = 64

# S - x_i + 1 and S - x_i - 1 over both values of x_i: S + 2, S and S - 2
_AROUND_S = np.array([-2.0, 0.0, 2.0])


def _exchangeable(dim: int, global_flip: bool) -> tuple:
    """Two generators of every coordinate permutation: the transposition
    (0 1) and, for d >= 3, the cyclic shift i -> i + 1 mod d; and optionally
    the global flip. Their state orbits are the d + 1 classes of the +1
    count (floor(d/2) + 1 with the flip), and a kernel check costs one
    strided view per generator whatever d is."""
    ident = list(range(dim))
    gens = [(tuple([1, 0] + ident[2:]), 0)] if dim >= 2 else []
    if dim >= 3:
        gens.append((tuple(ident[1:] + ident[:1]), 0))
    if global_flip:
        gens.append((tuple(ident), (1 << dim) - 1))
    return tuple(gens)


def permutes_every_coordinate(dim: int, generators: tuple) -> bool:
    """Whether the isometries `generators`, as `cube_orbits` normalizes
    them, include the permutations of `_exchangeable`, and so generate the
    symmetric group S_d: the transposition and the cyclic shift for d >= 3,
    the transposition alone, which is all of S_2, at d = 2, and nothing at
    d = 1."""
    return set(_exchangeable(dim, False)) <= set(generators)


@dataclass(frozen=True)
class IndependentBits(TargetModel):
    """d independent +-1 bits: log weight beta * sum_i x_i."""

    beta: float
    dim: int
    name = "bits"

    def __post_init__(self):
        _check_dim(self.dim)
        _check_finite(beta=self.beta)

    def log_weight_signs(self, signs):
        return self.beta * np.asarray(signs, dtype=np.float64).sum(axis=-1)

    def glauber_score_signs(self, signs):
        signs = np.asarray(signs)
        return np.full(signs.shape, self.beta, dtype=np.float64)

    stein_score_signs = glauber_score_signs

    def symmetries(self):
        """Every coordinate permutation, and the global flip at beta = 0."""
        return _exchangeable(self.dim, self.beta == 0)


@dataclass(frozen=True)
class BitsMixture(TargetModel):
    """Even mixture of IndependentBits(beta) and its global sign flip.

    log weight = log(0.5 e^{beta S} + 0.5 e^{-beta S}) with S = sum_i x_i,
    evaluated as a log-sum-exp of the two branches.
    """

    beta: float
    dim: int
    name = "mixture"

    def __post_init__(self):
        _check_dim(self.dim)
        _check_finite(beta=self.beta)

    def _branch_logsum(self, s):
        return np.logaddexp(self.beta * s, -self.beta * s) - math.log(2.0)

    def log_weight_signs(self, signs):
        s = np.asarray(signs, dtype=np.float64).sum(axis=-1)
        return self._branch_logsum(s)

    def glauber_score_signs(self, signs):
        # with s_rest = S - x_i, the score is half of L(s_rest + 1) - L(s_rest - 1):
        # L(S) - L(S - 2) where x_i = +1 and L(S + 2) - L(S) where x_i = -1, so
        # three branch sums per state cover every coordinate, to the same floats
        signs = np.asarray(signs, dtype=np.float64)
        lse = self._branch_logsum(signs.sum(axis=-1, keepdims=True) + _AROUND_S)
        half = 0.5 * (lse[..., 1:] - lse[..., :-1])
        return np.where(signs > 0, half[..., :1], half[..., 1:])

    def stein_score_signs(self, signs):
        # continuation log cosh(beta * sum x) has gradient beta tanh(beta sum x)
        signs = np.asarray(signs, dtype=np.float64)
        s = signs.sum(axis=-1, keepdims=True)
        return np.broadcast_to(self.beta * np.tanh(self.beta * s), signs.shape).copy()

    def symmetries(self):
        """Every coordinate permutation and the global flip."""
        return _exchangeable(self.dim, True)


@dataclass(frozen=True)
class IsingGrid(TargetModel):
    """Nearest-neighbour grid model: J sum_{edges} x_i x_j + h sum_i x_i.

    Coordinates are laid out row-major, i = r * cols + c. The boundary is
    free by default; `periodic=True` adds wrap-around edges along any axis
    of length >= 3 (shorter axes would duplicate an existing edge).
    """

    rows: int
    cols: int
    J: float
    h: float = 0.0
    periodic: bool = False
    name = "ising"

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ParameterError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        _check_finite(J=self.J, h=self.h)

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    @functools.cached_property
    def _adjacency(self) -> np.ndarray | None:
        """The 0/1 adjacency matrix of a grid of at most `_DENSE_GRID_SITES`
        sites, built once per grid; None for larger grids, whose matrix would
        grow as d^2."""
        if self.dim > _DENSE_GRID_SITES:
            return None
        # the neighbour sums of the unit vectors are the rows of the symmetric matrix
        adj = self._shifted_sum(np.eye(self.dim))
        adj.setflags(write=False)
        return adj

    def _shifted_sum(self, g):
        """Neighbour sums by O(d) slice adds over the grid layout."""
        g = g.reshape(*g.shape[:-1], self.rows, self.cols)
        nb = np.zeros_like(g)
        nb[..., 1:, :] += g[..., :-1, :]
        nb[..., :-1, :] += g[..., 1:, :]
        nb[..., :, 1:] += g[..., :, :-1]
        nb[..., :, :-1] += g[..., :, 1:]
        if self.periodic and self.rows >= 3:
            nb[..., 0, :] += g[..., -1, :]
            nb[..., -1, :] += g[..., 0, :]
        if self.periodic and self.cols >= 3:
            nb[..., :, 0] += g[..., :, -1]
            nb[..., :, -1] += g[..., :, 0]
        return nb.reshape(*g.shape[:-2], self.dim)

    def _neighbor_sum(self, signs):
        # sums of +-1 terms are exact integers, so both forms give the same floats
        adj = self._adjacency
        return self._shifted_sum(signs) if adj is None else signs @ adj

    def log_weight_signs(self, signs):
        signs = np.asarray(signs, dtype=np.float64)
        nb = self._neighbor_sum(signs)
        # x * nb counts every edge twice
        return 0.5 * self.J * (signs * nb).sum(axis=-1) + self.h * signs.sum(axis=-1)

    def glauber_score_signs(self, signs):
        return self.J * self._neighbor_sum(np.asarray(signs, dtype=np.float64)) + self.h

    # the log weight is quadratic with zero diagonal, so the smooth-gradient
    # and single-flip scores coincide
    stein_score_signs = glauber_score_signs

    def symmetries(self):
        """Row and column reflections, the transpose of a square grid, the
        cyclic shift along each periodic axis of length >= 3, and the
        global flip at zero field."""
        r, c = np.divmod(np.arange(self.dim), self.cols)
        maps = [(self.rows - 1 - r, c), (r, self.cols - 1 - c)]
        if self.rows == self.cols:
            maps.append((c, r))
        if self.periodic and self.rows >= 3:
            maps.append(((r + 1) % self.rows, c))
        if self.periodic and self.cols >= 3:
            maps.append((r, (c + 1) % self.cols))
        ident = tuple(range(self.dim))
        sigmas = (tuple(int(k) for k in rr * self.cols + cc) for rr, cc in maps)
        gens = [(sigma, 0) for sigma in sigmas if sigma != ident]
        if self.h == 0:
            gens.append((ident, (1 << self.dim) - 1))
        return tuple(gens)


@dataclass(frozen=True)
class CurieWeiss(TargetModel):
    """Mean-field magnetization model: log weight beta * (sum_i x_i - b)^2."""

    beta: float
    b: float
    dim: int
    name = "curieweiss"

    def __post_init__(self):
        _check_dim(self.dim)
        _check_finite(beta=self.beta, b=self.b)

    def log_weight_signs(self, signs):
        s = np.asarray(signs, dtype=np.float64).sum(axis=-1)
        return self.beta * (s - self.b) ** 2

    def glauber_score_signs(self, signs):
        signs = np.asarray(signs, dtype=np.float64)
        s_rest = signs.sum(axis=-1, keepdims=True) - signs
        return 2.0 * self.beta * (s_rest - self.b)

    def stein_score_signs(self, signs):
        signs = np.asarray(signs, dtype=np.float64)
        s = signs.sum(axis=-1, keepdims=True)
        return np.broadcast_to(2.0 * self.beta * (s - self.b), signs.shape).copy()

    def symmetries(self):
        """Every coordinate permutation, and the global flip at b = 0."""
        return _exchangeable(self.dim, self.b == 0)


def _require_finite_rows(model: TargetModel, table: np.ndarray, what: str, words=None) -> None:
    """ParameterError naming the model and the first state whose row of
    `table`, one row per state, is not finite: row k is state word k, or
    words[k] when given."""
    bad = np.flatnonzero(~np.isfinite(table.reshape(len(table), -1)).all(axis=1))
    if len(bad):
        k = int(bad[0])
        raise ParameterError(f"{model!r} has a non-finite {what} at state "
                             f"{k if words is None else words[k]:#x}: {table[k]}")


# equal models share one table; the bound is that of the score tables
@functools.lru_cache(maxsize=16)
def log_weight_table(model: TargetModel) -> np.ndarray:
    """The read-only log weight of every state, entry k at state k, built
    once per model. Raises ParameterError at a state where it overflows."""
    with np.errstate(all="ignore"):
        lw = model.log_weight_signs(all_signs(model.dim).astype(np.float64))
    _require_finite_rows(model, lw, "log weight")
    lw.setflags(write=False)
    return lw


def exact_target(model: TargetModel) -> np.ndarray:
    """The normalized target as a length-2^d probability vector.

    Entry k is proportional to exp(log_weight(state k)). Indexing follows
    the packed-word convention of `statespace`, whose enumeration cap
    applies; memory is the practical limit well below it.
    """
    lw = log_weight_table(model)
    p = np.exp(lw - lw.max())
    p /= p.sum()
    return p
