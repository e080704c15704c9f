import numpy as np
import pytest

from delcert.rng import RandomStream, derive_generator, text_fingerprint

#: (seed, *path) addresses at the edges of the 32-bit word split
_ADDRESSES = [
    (0,),
    (1,),
    (2**32 - 1,),
    (2**32,),
    (2**63 - 1,),
    (2**64,),
    (2**100 + 12345,),
    (7, 0),
    (0, 0, 0),
    (2**32, 0, 2**32 - 1, 0),
    (5, 2**64 + 3, 0),
    (3, np.int64(9)),
    (np.int64(2**62), 0, np.uint32(2**32 - 1)),
]


def _first_words(bit_generator):
    return bit_generator.random_raw(8).tolist()


@pytest.mark.parametrize("address", _ADDRESSES, ids=str)
def test_derive_generator_equals_numpy_tuple_seeding(address):
    reference = np.random.Philox(np.random.SeedSequence(tuple(address)))
    assert _first_words(derive_generator(*address).bit_generator) == _first_words(reference)


def test_stream_child_generator_equals_derive_generator():
    stream = RandomStream(11).child(0, np.int64(2**40)).child(3)
    assert stream.path == (0, 2**40, 3)
    assert _first_words(stream.generator().bit_generator) == _first_words(
        derive_generator(11, 0, 2**40, 3).bit_generator
    )


@pytest.mark.parametrize("address", [(-1,), (3, -1), (3, 0, np.int64(-5))], ids=str)
def test_negative_indices_raise(address):
    with pytest.raises(ValueError):
        derive_generator(*address)
    with pytest.raises(ValueError):
        np.random.SeedSequence(tuple(address))


@pytest.mark.parametrize("index", [0.9, 3.0, np.float64(2.0), "1"], ids=repr)
def test_non_integer_indices_raise(index):
    # a float was once truncated to int, so .child(0.9) silently addressed .child(0)
    with pytest.raises(TypeError):
        RandomStream(3).child(index)
    with pytest.raises(TypeError):
        derive_generator(3, index)
    with pytest.raises(TypeError):
        derive_generator(index)


def test_numpy_integer_indices_give_the_same_words():
    for index in (np.int8(7), np.uint16(7), np.int64(7), np.uint64(7)):
        assert RandomStream(3).child(index).path == (7,)
        assert type(RandomStream(3).child(index).path[0]) is int
        assert _first_words(derive_generator(np.uint32(3), index).bit_generator) == _first_words(
            derive_generator(3, 7).bit_generator
        )


def test_text_fingerprint_pinned():
    assert text_fingerprint("the quick brown fox") == 7546964813429208407
    assert text_fingerprint("naïve café – 東京") == 4973161620633395296
    assert 0 <= text_fingerprint("") < 2**63
