import numpy as np
import pytest

from cubelab.statespace import (BitState, all_signs, hamming, index_of, pack_words, state_of,
                                unpack_words)


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


def test_signs_roundtrip():
    rng = np.random.default_rng(3)
    for dim in (1, 3, 7, 64, 70):
        bits = int(rng.integers(0, 1 << min(dim, 62)))
        x = BitState(bits, dim)
        assert BitState.from_signs(x.signs()) == x
        assert x.signs().dtype == np.int8


def test_all_signs_matches_state_signs():
    table = all_signs(5)
    assert table.shape == (32, 5)
    for k in range(32):
        np.testing.assert_array_equal(table[k], state_of(k, 5).signs())


@pytest.mark.parametrize("dim", [1, 13, 63, 64])
def test_packed_words_round_trip(dim):
    """`pack_words` turns mask rows into the words `BitState.from_signs`
    builds, up to 64 bits, and `unpack_words` inverts it."""
    mask = np.random.default_rng(dim).random((40, dim)) < 0.5
    mask[0], mask[1] = False, True
    words = pack_words(mask)
    assert words == [BitState.from_signs(np.where(row, 1, -1)).bits for row in mask]
    np.testing.assert_array_equal(unpack_words(words, dim), mask)
    assert unpack_words([], dim).shape == (0, dim)
