import numpy as np
import pytest

from cubelab.errors import CapabilityError
from cubelab.statespace import (MAX_SIM_DIM, BitState, all_signs, hamming, index_of,
                                isometry_images, pack_words, state_of, unpack_words)


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


@pytest.mark.parametrize("dim", [1, 4, 7])
def test_isometry_images_move_bits(dim):
    """Bit sigma[i] of g(k) is bit i of k, XORed with the flip mask."""
    rng = np.random.default_rng(dim)
    for _ in range(4):
        sigma = rng.permutation(dim).tolist()
        mask = int(rng.integers(0, 1 << dim))
        want = [sum(((k >> i) & 1) << sigma[i] for i in range(dim)) ^ mask
                for k in range(1 << dim)]
        assert isometry_images(dim, sigma, mask).tolist() == want


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
