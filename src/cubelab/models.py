"""The four target families as unnormalized log-densities over {-1,+1}^d.

Every model is strictly positive, so log weights are finite everywhere. All
arithmetic stays in the log domain; normalization subtracts the maximum
before exponentiating (Curie-Weiss at beta = 1, d = 9 already reaches e^81).

Vectorized entry points take arrays of +-1 coordinates with an arbitrary
leading shape; the scalar `log_weight` wraps them for a single BitState.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, ParameterError
from .statespace import MAX_EXACT_DIM, BitState, all_signs


class TargetModel:
    """Common surface of the target families.

    Subclasses provide `log_weight_signs` (the unnormalized log-density),
    plus closed-form single-flip and smooth-continuation gradients used by
    the score machinery. Instances are frozen dataclasses with finite
    parameters: immutable and hashable, so equal instances share one
    memoized score table per kind. Evaluation is pure.
    """

    dim: int

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
        default declares none.
        """
        return ()

    def log_weight(self, x: BitState) -> float:
        if x.dim != self.dim:
            raise ValueError(f"state dimension {x.dim} != model dimension {self.dim}")
        return float(self.log_weight_signs(x.signs().astype(np.float64)))

    @property
    def name(self) -> str:
        raise NotImplementedError


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ParameterError(f"dimension must be positive, got {dim}")


def _check_finite(**params: float) -> None:
    for name, value in params.items():
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _exchangeable(dim: int, global_flip: bool) -> tuple:
    """The d-1 adjacent transpositions, which generate every coordinate
    permutation, and optionally the global flip."""
    ident = list(range(dim))
    gens = [(tuple(ident[:i] + [i + 1, i] + ident[i + 2:]), 0) for i in range(dim - 1)]
    if global_flip:
        gens.append((tuple(ident), (1 << dim) - 1))
    return tuple(gens)


@dataclass(frozen=True)
class IndependentBits(TargetModel):
    """d independent +-1 bits: log weight beta * sum_i x_i."""

    beta: float
    dim: int

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
        return _exchangeable(self.dim, self.beta == 0)

    @property
    def name(self):
        return "bits"


@dataclass(frozen=True)
class BitsMixture(TargetModel):
    """Even mixture of IndependentBits(beta) and its global sign flip.

    log weight = log(0.5 e^{beta S} + 0.5 e^{-beta S}) with S = sum_i x_i,
    evaluated as a log-sum-exp of the two branches.
    """

    beta: float
    dim: int

    def __post_init__(self):
        _check_dim(self.dim)
        _check_finite(beta=self.beta)

    def _branch_logsum(self, s):
        return np.logaddexp(self.beta * s, -self.beta * s) - math.log(2.0)

    def log_weight_signs(self, signs):
        s = np.asarray(signs, dtype=np.float64).sum(axis=-1)
        return self._branch_logsum(s)

    def glauber_score_signs(self, signs):
        signs = np.asarray(signs, dtype=np.float64)
        s_rest = signs.sum(axis=-1, keepdims=True) - signs
        return 0.5 * (self._branch_logsum(s_rest + 1.0) - self._branch_logsum(s_rest - 1.0))

    def stein_score_signs(self, signs):
        # continuation log cosh(beta * sum x) has gradient beta tanh(beta sum x)
        signs = np.asarray(signs, dtype=np.float64)
        s = signs.sum(axis=-1, keepdims=True)
        return np.broadcast_to(self.beta * np.tanh(self.beta * s), signs.shape).copy()

    def symmetries(self):
        return _exchangeable(self.dim, True)

    @property
    def name(self):
        return "mixture"


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

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ParameterError(f"grid must be at least 1x1, got {self.rows}x{self.cols}")
        _check_finite(J=self.J, h=self.h)

    @property
    def dim(self) -> int:
        return self.rows * self.cols

    def _neighbor_sum(self, signs):
        g = np.asarray(signs, dtype=np.float64).reshape(*signs.shape[:-1], self.rows, self.cols)
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
        return nb.reshape(signs.shape)

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

    @property
    def name(self):
        return "ising"


@dataclass(frozen=True)
class CurieWeiss(TargetModel):
    """Mean-field magnetization model: log weight beta * (sum_i x_i - b)^2."""

    beta: float
    b: float
    dim: int

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
        return _exchangeable(self.dim, self.b == 0)

    @property
    def name(self):
        return "curieweiss"


def exact_target(model: TargetModel) -> np.ndarray:
    """The normalized target as a length-2^d probability vector.

    Entry k is proportional to exp(log_weight(state k)). Indexing follows
    the packed-word convention of `statespace`. Memory is the practical
    limit well below the hard cap.
    """
    if model.dim > MAX_EXACT_DIM:
        raise CapabilityError(
            f"exact normalization capped at d <= {MAX_EXACT_DIM}, got {model.dim}")
    lw = model.log_weight_signs(all_signs(model.dim).astype(np.float64))
    lw -= lw.max()
    p = np.exp(lw)
    p /= p.sum()
    return p
