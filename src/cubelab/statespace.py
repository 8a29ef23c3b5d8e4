"""Packed-bit representation and geometry of the sign hypercube {-1,+1}^d.

States are stored as d-bit words: bit i is set iff coordinate i equals +1,
with coordinate 0 in the least significant position. The packed word doubles
as the canonical state index, so the all-(-1) state is index 0 and the
all-(+1) state is index 2^d - 1. Every conversion between words and
coordinates goes through `pack_words` and `unpack_words`, in time linear in
d at every width. `flip_neighbors` indexes each state's d neighbours and
`adjacent_pairs` lists the edges. A cube isometry (sigma, flip_mask) acts on
the indices as the permutation `isometry_images` returns, and `cube_orbits`
holds the orbits of states and edges under the group that such isometries
generate, the trivial group included, with the quotient graph's edges.
`symmetric_blocks` holds the bases on which a kernel that commutes with
every coordinate permutation splits into floor(d/2) + 1 small blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapabilityError, ParameterError

# 2^d indexing stays inside a 32-bit-safe integer up to d = 30; exact dense
# analysis runs far below that (memory is the binding constraint), while
# simulation paths only store coordinates and may go much higher.
MAX_EXACT_DIM = 30
MAX_SIM_DIM = 1 << 20


def _check_coord(i: int, dim: int) -> None:
    if not 0 <= i < dim:
        raise IndexError(f"coordinate {i} out of range for dimension {dim}")


@dataclass(frozen=True)
class BitState:
    """One point of {-1,+1}^d packed as a d-bit word."""

    bits: int
    dim: int

    def __post_init__(self):
        if not 1 <= self.dim <= MAX_SIM_DIM:
            raise ValueError(f"dimension must be in [1, {MAX_SIM_DIM}], got {self.dim}")
        if not 0 <= self.bits < (1 << self.dim):
            raise IndexError(f"word {self.bits:#x} out of range for dimension {self.dim}")

    def coord(self, i: int) -> int:
        """Value of coordinate i, in {-1, +1}."""
        _check_coord(i, self.dim)
        return ((self.bits >> i) & 1) * 2 - 1

    def flip(self, i: int) -> "BitState":
        """The state with coordinate i negated and all others unchanged."""
        _check_coord(i, self.dim)
        return BitState(self.bits ^ (1 << i), self.dim)

    def neighbors(self) -> list["BitState"]:
        """All single-flip states, in coordinate order."""
        return [self.flip(i) for i in range(self.dim)]

    def signs(self) -> np.ndarray:
        """Coordinates as a +-1 vector of dtype int8."""
        return unpack_words([self.bits], self.dim)[0].view(np.int8) * 2 - 1

    @classmethod
    def from_signs(cls, signs) -> "BitState":
        """Build a state from a +-1 coordinate vector."""
        arr = np.asarray(signs)
        if arr.ndim != 1 or not np.all(np.abs(arr) == 1):
            raise ValueError("signs must be a one-dimensional +-1 vector")
        return cls(pack_words(arr[None, :] > 0)[0], arr.shape[0])


def pack_words(mask: np.ndarray) -> list[int]:
    """The rows of an (n, d) boolean mask as Python int words, bit i set iff
    column i is True."""
    if mask.shape[1] > 64:
        return [int.from_bytes(row.tobytes(), "little")
                for row in np.packbits(mask, axis=1, bitorder="little")]
    # up to 64 bits a row is one uint64: a block padded to 64 columns packs as
    # one flat array, faster than short rows one by one, and converts in one call
    padded = np.zeros((len(mask), 64), dtype=bool)
    padded[:, :mask.shape[1]] = mask
    return np.packbits(padded, bitorder="little").view("<u8").tolist()


def unpack_words(words, dim: int) -> np.ndarray:
    """The (n, dim) boolean mask of n words, Python ints or an integer array
    of words up to 64 bits; inverse of `pack_words`."""
    if dim > 64:
        width = (dim + 7) // 8
        raw = np.frombuffer(b"".join(w.to_bytes(width, "little") for w in words),
                            dtype=np.uint8).reshape(-1, width)
    else:
        raw = np.array(words, dtype="<u8").reshape(-1, 1).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=dim, bitorder="little").view(bool)


def index_of(x: BitState) -> int:
    """Canonical integer index of a state (the packed word itself)."""
    return x.bits


def state_of(k: int, dim: int) -> BitState:
    """State with index k in dimension dim; inverse of index_of."""
    if not 0 <= k < (1 << dim):
        raise IndexError(f"index {k} out of range for dimension {dim}")
    return BitState(k, dim)


def hamming(x: BitState, y: BitState) -> int:
    """Number of coordinates where x and y differ."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return (x.bits ^ y.bits).bit_count()


def all_signs(dim: int) -> np.ndarray:
    """The full (2^d, d) matrix of +-1 coordinates, row k = state k.

    Intended for exact enumeration; dimensions beyond MAX_EXACT_DIM are
    rejected outright (and memory gives out long before that).
    """
    if dim > MAX_EXACT_DIM:
        raise CapabilityError(f"exact enumeration capped at d <= {MAX_EXACT_DIM}, got {dim}")
    return unpack_words(np.arange(1 << dim), dim).view(np.int8) * 2 - 1


def flip_neighbors(dim: int) -> np.ndarray:
    """The (2^d, d) index k ^ 2^i of the state that differs from state k in
    coordinate i alone."""
    return np.arange(1 << dim)[:, None] ^ (1 << np.arange(dim))


def isometry_images(dim: int, sigma, flip_mask: int) -> np.ndarray:
    """Image g(k) of every state word k under the cube isometry (sigma, flip_mask):
    `_moved_view` of the words, made contiguous; read-only and built once
    per (dim, sigma, flip_mask).

    Raises ParameterError unless sigma permutes range(dim) and flip_mask is
    a dim-bit word.
    """
    return _isometry_images(dim, tuple(int(s) for s in sigma), int(flip_mask))


# a model declares a handful of generators; the bound is that of the
# log-weight tables
@functools.lru_cache(maxsize=16)
def _isometry_images(dim: int, sigma: tuple, flip_mask: int) -> np.ndarray:
    n = 1 << dim
    if sorted(sigma) != list(range(dim)) or not 0 <= flip_mask < n:
        raise ParameterError(
            f"({sigma}, {flip_mask}) is not an isometry of the {dim}-cube")
    images = np.ascontiguousarray(_moved_view(np.arange(n), "x", dim, sigma, flip_mask).reshape(n))
    images.setflags(write=False)
    return images


def _moved_view(a: np.ndarray, axes: str, dim: int, sigma, mask: int) -> np.ndarray:
    """`a` moved by the cube isometry g = (sigma, mask), the one statement of
    its action: entry k of a state axis "x" reads a at g(k), and entry i of
    a coordinate axis "i" reads a at sigma[i], shaped like `_bit_axes(a,
    axes, dim)`. Bit sigma[i] of g(k) is bit i of k XORed with bit sigma[i]
    of the mask, so moving a state axis transposes its bit axes and
    reverses the masked ones: a strided view of `a`, or of a copy permuted
    by sigma where there is an "i" axis."""
    order, reverse, at = [], [], 0
    for k, ax in enumerate(axes):
        if ax == "i":
            a = a.take(sigma, axis=k)
            order.append(at)
            at += 1
            continue
        # bit axis p holds bit dim - 1 - p
        order += [at + dim - 1 - sigma[dim - 1 - p] for p in range(dim)]
        reverse += [at + p for p in range(dim) if mask >> (dim - 1 - p) & 1]
        at += dim
    return np.flip(_bit_axes(a, axes, dim), reverse).transpose(order)


def _bit_axes(a: np.ndarray, axes: str, dim: int) -> np.ndarray:
    """`a` with each state axis "x" split into `dim` bit axes of length 2,
    the most significant bit first."""
    return a.reshape([m for ax, size in zip(axes, a.shape)
                      for m in ([2] * dim if ax == "x" else [size])])


def adjacent_pairs(dim: int) -> np.ndarray:
    """(k, k + 2^i) for every edge of the dim-cube, by coordinate i, then k."""
    nb = flip_neighbors(dim)
    i, lo = np.nonzero(nb.T > np.arange(1 << dim))
    return np.stack([lo, nb[lo, i]], axis=1)


@dataclass(frozen=True)
class CubeOrbits:
    """The orbits of the states and edges of the d-cube under the group
    that the isometries `generators` generate, whose state maps are
    `images`; the cube is the quotient by the trivial group.

    Orbits are numbered by their lowest state, so orbit 0 holds state 0:
    `of` is each state's orbit, `reps` and `sizes` each orbit's lowest
    state and size, `membership` the (2^d, r) 0/1 matrix of states in
    orbits (None when every orbit is one state). `edges` joins each pair of
    orbits that a cube edge joins, in order of the first such edge of
    `adjacent_pairs(d)`, and `edge_of` is the lowest index in each edge's
    orbit, indexed as there. `path` is True when those edges form the path
    o_0 - o_1 - ... - o_{r-1}, as the +1 counts do under every coordinate
    permutation, folded or not by the global flip."""

    generators: tuple
    images: tuple
    of: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray
    membership: np.ndarray | None
    edges: np.ndarray
    edge_of: np.ndarray
    path: bool

    def lump(self, a: np.ndarray) -> np.ndarray:
        """Sums of the last axis of `a` over each orbit; `a` itself when
        every orbit is one state."""
        return a if self.membership is None else a @ self.membership


def cube_orbits(dim: int, generators) -> CubeOrbits:
    """The orbits under the group that the cube isometries `generators`
    generate (trivial for none), built once per (dim, generators);
    ParameterError if one is not an isometry."""
    return _cube_orbits(dim, tuple((tuple(int(s) for s in sigma), int(mask))
                                   for sigma, mask in generators))


# a model declares one group, and every dimension meets the trivial one
@functools.lru_cache(maxsize=16)
def _cube_orbits(dim: int, generators: tuple) -> CubeOrbits:
    n = 1 << dim
    pairs = adjacent_pairs(dim)
    images = tuple(isometry_images(dim, sigma, mask) for sigma, mask in generators)
    # the group acts on states and edges at once: edge e is index n + e
    maps = []
    for img in images:
        a, b = img[pairs[:, 0]], img[pairs[:, 1]]
        j = np.bitwise_count((a ^ b) - 1).astype(np.int64)  # the coordinate it flips
        lo = np.minimum(a, b)
        # rank of lo among the words with bit j clear
        edge = (j << (dim - 1)) | (lo & ((1 << j) - 1)) | ((lo >> (j + 1)) << j)
        maps.append(np.concatenate([img, n + edge]))
    labels = orbit_minima(n + len(pairs), maps)
    reps = np.flatnonzero(labels[:n] == np.arange(n))
    of = np.searchsorted(reps, labels[:n])
    ends = np.sort(of[pairs], axis=1)
    cross = ends[ends[:, 0] != ends[:, 1]]
    first = np.sort(np.unique(cross, axis=0, return_index=True)[1])
    membership = None if len(reps) == n else (of[:, None] == np.arange(len(reps))) * 1.0
    edges = cross[first]
    arrays = of, reps, np.bincount(of), membership, edges, labels[n:] - n
    for a in arrays:
        if a is not None:
            a.setflags(write=False)
    # the edges are distinct pairs (lo, hi), so r - 1 of them that each join
    # consecutive orbits are the path
    path = len(edges) == len(reps) - 1 and bool((edges[:, 1] - edges[:, 0] == 1).all())
    return CubeOrbits(generators, images, *arrays, path)


class SymmetricBlock(NamedTuple):
    """One copy of the multiplicity space of irreducible component j of the
    action of the symmetric group S_d on functions of the d-cube.

    Its basis phi_{j,m}, m = 0..d - 2j, fills the columns of the
    (2^d, d - 2j + 1) matrix `basis`:

      phi_{j,m}(x) = prod_{i<j} ([x_{2i}, x_{2i+1}] = (+,-) - [(-,+)])
                     * [number of +1 among coordinates 2j..d-1 = m].

    Its span is the set of functions that change sign under each swap
    (2i 2i+1), i < j, and are invariant under permutations of coordinates
    2j..d-1, so every kernel that commutes with S_d maps it into itself.
    `rows[m']` is the state word with pairs (+,-) and the first m' of the
    remaining coordinates +1, where phi_{j,m} reads [m = m'], and
    `multiplicity` = C(d, j) - C(d, j - 1) is the dimension of the
    component (Terwilliger block-diagonalization; A. Schrijver, IEEE Trans.
    Inf. Theory 51, 2005)."""

    basis: np.ndarray
    rows: np.ndarray
    multiplicity: int


# one entry per dimension that the dense kernels reach
@functools.lru_cache(maxsize=16)
def symmetric_blocks(dim: int) -> tuple[SymmetricBlock, ...]:
    """The S_d blocks j = 0..floor(d/2) of the d-cube (see
    `SymmetricBlock`), built once per dimension, with read-only arrays."""
    bits = unpack_words(np.arange(1 << dim), dim)
    blocks = []
    for j in range(dim // 2 + 1):
        # +1 on (+,-), -1 on (-,+) and 0 on equal pairs
        sign = (bits[:, 0:2 * j:2].astype(np.int8) - bits[:, 1:2 * j:2]).prod(axis=1)
        count = bits[:, 2 * j:].sum(axis=1)
        basis = sign[:, None] * (count[:, None] == np.arange(dim - 2 * j + 1)).astype(np.float64)
        pairs = sum(1 << (2 * i) for i in range(j))
        rows = np.array([pairs | (((1 << m) - 1) << (2 * j)) for m in range(dim - 2 * j + 1)])
        for a in (basis, rows):
            a.setflags(write=False)
        blocks.append(SymmetricBlock(basis, rows,
                                     math.comb(dim, j) - (math.comb(dim, j - 1) if j else 0)))
    return tuple(blocks)


def orbit_minima(size: int, maps: list[np.ndarray]) -> np.ndarray:
    """Lowest index in each orbit of the group that the permutations `maps`
    of range(size) generate; with no maps every index is its own."""
    steps = [s for m in maps for s in (m, np.argsort(m))]
    # labels only ever move to a smaller index in the same orbit, and stop
    # once no generator step lowers one: then each orbit carries its minimum
    labels = np.arange(size)
    while True:
        nxt = labels
        for step in steps:
            nxt = np.minimum(nxt, nxt[step])
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt
