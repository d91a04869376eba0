import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce as bf
from helpers import genome_from_string, random_genome
from evodemo.encoding import (
    BitGenome,
    EncodingSpec,
    decode,
    decode_values,
    occurrence_stats,
    state_value_distance,
)
from evodemo.errors import ContractViolationError


def spec_1d(bits, low, high, kind="discrete"):
    return EncodingSpec(dims=1, bits_per_dim=bits, bounds=((low, high),), kind=kind)


def test_sub_encoding_is_msb_first():
    # over [0, 15] the 16 codes of 4 bits decode to themselves
    spec = spec_1d(4, 0, 15)
    assert decode(genome_from_string("1000"), spec) == (8,)
    assert decode(genome_from_string("0001"), spec) == (1,)
    assert decode(genome_from_string("1111"), spec) == (15,)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_each_dimension_reads_its_own_bit_slice(data):
    dims = data.draw(st.integers(1, 4))
    bits = data.draw(st.integers(1, 12))
    kind = data.draw(st.sampled_from(["discrete", "continuous"]))
    bounds = []
    for _ in range(dims):
        if kind == "discrete":
            low = data.draw(st.integers(-50, 50))
            bounds.append((low, low + data.draw(st.integers(0, 2**bits - 1))))
        else:
            low = data.draw(st.floats(-10, 10))
            bounds.append((low, low + data.draw(st.floats(0.01, 10))))
    spec = EncodingSpec(dims=dims, bits_per_dim=bits, bounds=tuple(bounds), kind=kind)
    # a discrete range of 2**bits values starting at 0 decodes each code to itself
    identity = EncodingSpec(dims=dims, bits_per_dim=bits, bounds=((0, 2**bits - 1),) * dims)
    text = data.draw(st.text("01", min_size=dims * bits, max_size=dims * bits))
    genome = genome_from_string(text)
    values = decode(genome, spec)
    pieces = [text[dim * bits:(dim + 1) * bits] for dim in range(dims)]
    assert decode(genome, identity) == tuple(int(piece, 2) for piece in pieces)
    for dim, (low, high) in enumerate(bounds):
        one_dim = EncodingSpec(dims=1, bits_per_dim=bits, bounds=((low, high),), kind=kind)
        assert values[dim] == decode(genome_from_string(pieces[dim]), one_dim)[0]
    assert genome.as_string() == text


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_batch_decodes_as_its_genomes_do_one_by_one(data):
    dims = data.draw(st.integers(1, 6))
    bits = data.draw(st.integers(1, 80))
    kind = data.draw(st.sampled_from(["discrete", "continuous"]))
    if kind == "discrete":
        bounds = ((-3, 5),) * dims if 2**bits >= 9 else ((0, 2**bits - 1),) * dims
    else:
        bounds = ((-0.15, 0.15),) * dims
    spec = EncodingSpec(dims=dims, bits_per_dim=bits, bounds=bounds, kind=kind)
    top = 2**spec.genome_length - 1
    values = data.draw(st.lists(st.sampled_from([0, top]) | st.integers(0, top), max_size=8))
    expected = [decode(BitGenome(value, spec.genome_length), spec) for value in values]
    assert decode_values(values, spec) == expected


@pytest.mark.parametrize(
    "value,length",
    [(1.0, 3), (True, 3), (-1, 3), (8, 3), (2**80, 80), (np.int64(1), 3),
     (1, 3.0), (1, True), (0, 0)],
)
def test_genome_takes_only_an_exact_int_that_fits_its_length(value, length):
    with pytest.raises(ContractViolationError):
        BitGenome(value, length)


def test_genome_string_is_its_value_in_binary():
    assert BitGenome(5, 6).as_string() == "000101"
    assert BitGenome(2**80 - 1, 80).as_string() == "1" * 80
    assert len(BitGenome(0, 80)) == 80


def test_discrete_decode_matches_enumeration_oracle():
    # frozen oracle: floor mapping of all 16 codes onto [0, 8]
    expected = [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 5, 6, 6, 7, 7, 8]
    spec = spec_1d(4, 0, 8)
    for e in range(16):
        genome = genome_from_string(format(e, "04b"))
        assert decode(genome, spec) == (expected[e],)


@pytest.mark.parametrize(
    "bits,ratio",
    [(4, 2.0), (5, 4 / 3), (6, 8 / 7)],
)
def test_occurrence_ratio_over_nine_values(bits, ratio):
    stats = occurrence_stats(spec_1d(bits, 0, 8))
    assert stats.probability_ratio == ratio
    # the ratio summarizes real enumeration counts, not just the formula
    counts = bf.discrete_value_counts(bits, 0, 8)
    assert max(counts.values()) / min(counts.values()) == ratio
    assert stats.higher_probability == max(counts.values()) / 2**bits
    assert stats.lower_probability == min(counts.values()) / 2**bits


def test_discrete_decode_every_code_agrees_with_oracle():
    for bits in (4, 5, 6):
        for low, high in ((0, 8), (1, 9), (-3, 3)):
            spec = spec_1d(bits, low, high)
            for e in range(2**bits):
                genome = genome_from_string(format(e, f"0{bits}b"))
                assert decode(genome, spec)[0] == bf.decode_discrete(genome.as_string(), low, high)


def test_continuous_decode_endpoints_are_exact():
    spec = spec_1d(9, -0.15, 0.15, kind="continuous")
    assert decode(genome_from_string("0" * 9), spec) == (-0.15,)
    assert decode(genome_from_string("1" * 9), spec) == (0.15,)


def test_continuous_decode_matches_oracle_table():
    # frozen oracle: 3-bit codes over [-1, 1]
    expected = [
        -1.0,
        -0.7142857142857143,
        -0.4285714285714286,
        -0.1428571428571429,
        0.1428571428571428,
        0.4285714285714286,
        0.7142857142857142,
        1.0,
    ]
    spec = spec_1d(3, -1.0, 1.0, kind="continuous")
    for e in range(8):
        genome = genome_from_string(format(e, "03b"))
        assert decode(genome, spec)[0] == pytest.approx(expected[e], abs=1e-15)


def test_continuous_resolution_nine_bits():
    spec = spec_1d(9, -0.15, 0.15, kind="continuous")
    spacing = state_value_distance(spec)
    assert spacing == pytest.approx(0.0005870841487279843, abs=1e-18)
    assert spacing < 0.001


def test_multi_dimension_decode_splits_genome_per_dimension():
    spec = EncodingSpec(dims=2, bits_per_dim=4, bounds=((0, 8), (1, 9)), kind="discrete")
    genome = genome_from_string("10000000")
    assert decode(genome, spec) == (4, 1)


def test_decode_rejects_wrong_genome_length():
    spec = spec_1d(4, 0, 8)
    with pytest.raises(ContractViolationError):
        decode(genome_from_string("101"), spec)


def test_discrete_spec_requires_enough_codes():
    with pytest.raises(ContractViolationError):
        spec_1d(2, 0, 8)  # 4 codes cannot cover 9 values


def test_genome_string_round_trip():
    genome = genome_from_string("10110")
    assert genome.as_string() == "10110"
    assert genome_from_string(genome.as_string()) == genome


def test_random_genome_is_seed_deterministic():
    spec = EncodingSpec(dims=2, bits_per_dim=6, bounds=((1, 9), (1, 9)), kind="discrete")
    a = random_genome(np.random.default_rng(7), spec)
    b = random_genome(np.random.default_rng(7), spec)
    assert a == b
    assert len(a) == spec.genome_length


@pytest.mark.parametrize("bits", [1, 6, 80])
def test_random_genome_packs_one_draw_of_bits_msb_first(bits):
    spec = EncodingSpec(dims=3, bits_per_dim=bits, bounds=((0.0, 1.0),) * 3, kind="continuous")
    rng = np.random.default_rng(11)
    genome = random_genome(rng, spec)
    drawn = np.random.default_rng(11).integers(0, 2, size=spec.genome_length)
    assert genome.as_string() == "".join(map(str, drawn.tolist()))
