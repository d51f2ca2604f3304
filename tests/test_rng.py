import pytest

from concatgv.rng import SplitMix64

from oracles import bits_by_chunks

SIZES = (0, 1, 3, 8, 17, 63, 64, 65, 127, 128, 130, 200)


def test_bits_matches_the_chunk_loop():
    plan = SplitMix64(77)
    for seed in range(400):
        ours, ref = SplitMix64(seed), SplitMix64(seed)
        for _ in range(40):
            if plan.randrange(5) == 0:
                assert ours.u64() == ref.u64()
            else:
                nbits = SIZES[plan.randrange(len(SIZES))]
                got = bits_by_chunks(ref, nbits)
                assert ours.bits(nbits) == got and got >> nbits == 0


def test_bits_and_randrange_reject_out_of_range_arguments():
    rng = SplitMix64(1)
    with pytest.raises(ValueError, match="nbits must be nonnegative"):
        rng.bits(-1)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be positive"):
            rng.randrange(n)


def test_randrange_of_one_draws_nothing():
    rng = SplitMix64(9)
    assert [rng.randrange(1) for _ in range(3)] == [0, 0, 0]
    assert rng.u64() == SplitMix64(9).u64()


def test_uniforms_continue_the_uniform_stream():
    for seed in (0, 5, -1, (1 << 64) - 1):
        ours, ref = SplitMix64(seed), SplitMix64(seed)
        for count in (0, 1, 7, 300):
            assert ours.uniforms(count).tolist() == [ref.uniform() for _ in range(count)]
        assert ours.u64() == ref.u64()
    with pytest.raises(ValueError, match="count must be nonnegative"):
        SplitMix64(1).uniforms(-1)


def test_words_continue_the_u64_stream():
    for seed in (0, 5, -1, (1 << 64) - 1):
        ours, ref = SplitMix64(seed), SplitMix64(seed)
        for count in (0, 1, 7, 300):
            assert ours.words(count).tolist() == [ref.u64() for _ in range(count)]
        assert ours.u64() == ref.u64()
    with pytest.raises(ValueError, match="count must be nonnegative"):
        SplitMix64(1).words(-1)
