import math

import numpy as np
import pytest

from cubelab.errors import CapabilityError, ParameterError
from cubelab.models import BitsMixture, CurieWeiss, IndependentBits, IsingGrid
from cubelab.statespace import (MAX_SIM_DIM, BitState, adjacent_pairs, all_signs, cube_orbits,
                                flip_neighbors, hamming, index_of, isometry_images, pack_words,
                                state_of, symmetric_blocks, unpack_words)


def _word(row) -> int:
    """The word whose bit i is row[i], written out as binary digits, most
    significant first: a per-bit reference that shares no code with the codec."""
    return int(np.where(row[::-1], b"1", b"0").tobytes(), 2)


def _row(word: int, dim: int) -> np.ndarray:
    """The dim bits of a word, least significant first; inverse of `_word`."""
    return np.frombuffer(format(word, f"0{dim}b").encode()[::-1], dtype=np.uint8) == ord("1")


def test_index_conventions():
    assert index_of(BitState.from_signs([-1, -1, -1])) == 0
    assert index_of(BitState.from_signs([1, 1, 1])) == 7
    # coordinate 0 is least significant
    assert index_of(BitState.from_signs([1, -1])) == 1


@pytest.mark.parametrize("dim", [1, 2, 5, 12])
def test_index_state_bijection(dim):
    for k in range(1 << dim):
        assert index_of(state_of(k, dim)) == k


def test_state_of_range_error():
    with pytest.raises(IndexError):
        state_of(8, 3)
    with pytest.raises(IndexError):
        state_of(-1, 3)


def test_bit_states_reject_malformed_input():
    with pytest.raises(IndexError, match="word 0x8 out of range for dimension 3"):
        BitState(8, 3)
    with pytest.raises(IndexError, match="out of range"):
        BitState(-1, 3)
    for dim in (0, MAX_SIM_DIM + 1):
        with pytest.raises(ValueError, match="dimension must be in"):
            BitState(0, dim)
    for signs in ([1, 0, -1], [[1, -1]], [1, 2]):
        with pytest.raises(ValueError, match="one-dimensional"):
            BitState.from_signs(signs)
    with pytest.raises(CapabilityError, match="exact enumeration capped at d <= 30"):
        all_signs(31)


def test_hamming_basics():
    x = state_of(0b101, 3)
    assert hamming(x, x) == 0
    assert hamming(state_of(0b11111, 5), state_of(0, 5)) == 5
    a = BitState.from_signs([1, 1, 1])
    b = BitState.from_signs([1, -1, 1])
    assert hamming(a, b) == 1
    with pytest.raises(ValueError):
        hamming(state_of(0, 3), state_of(0, 4))


def test_hamming_matches_coordinate_count_exhaustive_d8():
    # independent route: count disagreeing coordinates from the sign matrix
    signs = all_signs(8)
    mism = (signs[:, None, :] != signs[None, :, :]).sum(axis=2)
    for k in range(256):
        x = state_of(k, 8)
        for j in range(256):
            assert hamming(x, state_of(j, 8)) == mism[k, j]


def test_flip_involution_and_neighbors():
    x = state_of(0b0110, 4)
    for i in range(4):
        assert x.flip(i).flip(i) == x
        assert hamming(x, x.flip(i)) == 1
    nbrs = x.neighbors()
    assert len(nbrs) == 4
    assert len({n.bits for n in nbrs}) == 4
    with pytest.raises(IndexError):
        x.flip(4)
    with pytest.raises(IndexError):
        x.coord(-1)


@pytest.mark.parametrize("dim", [1, 63, 64, 65, 1000, MAX_SIM_DIM])
def test_bit_state_round_trip(dim):
    """`signs()` and `from_signs` agree with the per-bit reference at every
    width `BitState` accepts, up to `MAX_SIM_DIM`."""
    rng = np.random.default_rng(dim)
    for bits in (0, (1 << dim) - 1, _word(rng.random(dim) < 0.5)):
        x = BitState(bits, dim)
        signs = x.signs()
        assert signs.dtype == np.int8 and signs.shape == (dim,)
        np.testing.assert_array_equal(signs, np.where(_row(bits, dim), 1, -1))
        assert BitState.from_signs(signs) == x
        assert BitState.from_signs(signs.astype(np.float64)) == x


def test_all_signs_matches_state_signs():
    table = all_signs(5)
    assert table.shape == (32, 5) and table.dtype == np.int8
    for k in range(32):
        np.testing.assert_array_equal(table[k], [((k >> i) & 1) * 2 - 1 for i in range(5)])
        np.testing.assert_array_equal(table[k], state_of(k, 5).signs())


def _bit_shift_images(dim, sigma, mask):
    """The oracle for `isometry_images`: bit sigma[i] of g(k) is bit i of k,
    XORed with the flip mask, shifted into place word by word."""
    bits = unpack_words(np.arange(1 << dim), dim)
    return (bits << np.asarray(sigma, dtype=np.int64)).sum(axis=1) ^ mask


@pytest.mark.parametrize("dim", range(1, 13))
def test_isometry_images_move_bits(dim):
    """The images of random isometries, read off the strided view that
    moves arrays, are those of the bit-shift formula; each is built once
    per isometry, contiguous and read-only."""
    rng = np.random.default_rng(dim)
    for _ in range(17):
        sigma = rng.permutation(dim).tolist()
        mask = int(rng.integers(0, 1 << dim))
        images = isometry_images(dim, sigma, mask)
        want = _bit_shift_images(dim, sigma, mask)
        assert images.dtype == want.dtype and images.tolist() == want.tolist()
        if dim <= 7:
            assert images.tolist() == [sum(((k >> i) & 1) << sigma[i] for i in range(dim)) ^ mask
                                       for k in range(1 << dim)]
        # built once per isometry and shared, so read-only
        assert isometry_images(dim, tuple(sigma), mask) is images
        assert images.flags.c_contiguous and not images.flags.writeable


@pytest.mark.parametrize("sigma, mask", [((0, 0, 2), 0), ((0, 1), 0), ((0, 1, 3), 0),
                                         ((2, 0, 1), 8), ((2, 0, 1), -1)])
def test_a_malformed_isometry_is_a_parameter_error(sigma, mask):
    with pytest.raises(ParameterError, match="is not an isometry of the 3-cube"):
        isometry_images(3, sigma, mask)


def _closure(start, maps):
    """The orbit of `start` under the group that the functions `maps` generate."""
    seen, todo = {start}, [start]
    while todo:
        x = todo.pop()
        for g in maps:
            y = g(x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@pytest.mark.parametrize("model", [
    IndependentBits(0.5, 4), IndependentBits(0.0, 5), BitsMixture(0.5, 6),
    CurieWeiss(0.3, 0.2, 5), CurieWeiss(0.3, 0.0, 6), IsingGrid(2, 3, 0.4, 0.1),
    IsingGrid(2, 2, 0.4, 0.0), IsingGrid(1, 6, 0.3, 0.1, periodic=True),
    IsingGrid(2, 3, 0.3, 0.0, periodic=True),
], ids=repr)
def test_cube_orbits_are_the_closures_of_each_state_and_edge(model):
    """Each family's declared group, applied bit by bit to every state and
    every edge until nothing new appears, gives the orbits, the quotient
    edges in order of their first cube edge, and the lowest edge of each
    edge orbit."""
    d, gens = model.dim, model.symmetries()
    maps = [lambda k, s=sigma, m=mask: sum(((k >> i) & 1) << s[i] for i in range(d)) ^ m
            for sigma, mask in gens]
    orbits = cube_orbits(d, gens)
    state_orbits = [min(_closure(k, maps)) for k in range(1 << d)]
    assert orbits.reps[orbits.of].tolist() == state_orbits
    assert orbits.sizes.tolist() == [state_orbits.count(r) for r in orbits.reps.tolist()]
    assert np.array_equal(orbits.membership, orbits.of[:, None] == np.arange(len(orbits.reps)))
    pairs = [frozenset(e) for e in adjacent_pairs(d).tolist()]
    index = {e: j for j, e in enumerate(pairs)}
    edge_maps = [lambda e, g=g: frozenset(map(g, e)) for g in maps]
    assert orbits.edge_of.tolist() == [min(index[f] for f in _closure(e, edge_maps))
                                       for e in pairs]
    joined = []
    for u, v in adjacent_pairs(d).tolist():
        ends = sorted((orbits.of[u], orbits.of[v]))
        if ends[0] != ends[1] and ends not in joined:
            joined.append(ends)
    assert orbits.edges.tolist() == joined
    # the exchangeable families' orbits are the +1 counts, folded or not by
    # the global flip, and join as a path; these grids' do not
    assert orbits.path == (sorted(joined) == [[k, k + 1] for k in range(len(orbits.reps) - 1)])
    assert orbits.path == model.exchangeable
    assert cube_orbits(d, [list(g) for g in gens]) is orbits


@pytest.mark.parametrize("dim", range(1, 8))
def test_symmetric_blocks_follow_their_definition(dim):
    """Each basis vector phi_{j,m}, state by state from its definition; the
    row states, where phi_{j,m} reads [m = m']; and multiplicities that
    count every dimension of the cube once."""
    blocks = symmetric_blocks(dim)
    assert symmetric_blocks(dim) is blocks
    assert len(blocks) == dim // 2 + 1
    for j, (phi, rows, mult) in enumerate(blocks):
        for k in range(1 << dim):
            x = state_of(k, dim)
            pairs = math.prod((x.coord(2 * i) - x.coord(2 * i + 1)) // 2 for i in range(j))
            m = sum(x.coord(i) > 0 for i in range(2 * j, dim))
            assert phi[k].tolist() == [pairs * (m == col) for col in range(dim - 2 * j + 1)]
        for m_row, word in enumerate(rows.tolist()):
            x = state_of(word, dim)
            assert [x.coord(i) for i in range(2 * j)] == [1, -1] * j
            assert [x.coord(i) for i in range(2 * j, dim)] == (
                [1] * m_row + [-1] * (dim - 2 * j - m_row))
        np.testing.assert_array_equal(phi[rows], np.eye(dim - 2 * j + 1))
        assert mult == math.comb(dim, j) - (math.comb(dim, j - 1) if j else 0)
        assert not phi.flags.writeable and not rows.flags.writeable
    assert sum(b.multiplicity * (dim - 2 * j + 1) for j, b in enumerate(blocks)) == 1 << dim


@pytest.mark.parametrize("dim", [1, 13, 63, 64, 65, 130, 1 << 16])
def test_packed_words_round_trip(dim):
    """`pack_words` turns mask rows into the words of the per-bit reference
    at any width, and `unpack_words` inverts it."""
    mask = np.random.default_rng(dim).random((40, dim)) < 0.5
    mask[0], mask[1] = False, True
    words = pack_words(mask)
    assert words == [_word(row) for row in mask]
    np.testing.assert_array_equal(unpack_words(words, dim), mask)
    assert unpack_words([], dim).shape == (0, dim)


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_flip_neighbors_index_every_single_flip(dim):
    nb = flip_neighbors(dim)
    assert nb.shape == (1 << dim, dim)
    for k in range(1 << dim):
        assert nb[k].tolist() == [y.bits for y in state_of(k, dim).neighbors()]
