"""Bit-string genomes and their decoding into initial states.

A genome is a flat tuple of bits.  It is split into one sub-encoding of
``bits_per_dim`` bits per state dimension (most-significant bit first), and
each sub-encoding is read as an integer, normalized, and mapped into that
dimension's value range::

    discrete:    norm  = int(e) / 2**m                  in [0, 1)
                 value = floor(norm * (max + 1 - min) + min)

    continuous:  norm  = int(e) / (2**m - 1)            in [0, 1]
                 value = norm * (max - min) + min

Discrete decoding is surjective but not uniform: ``2**m`` codes spread over
``max + 1 - min`` values, so some values are hit by one extra code.
``occurrence_stats`` quantifies that imbalance exactly (both probabilities are
integer multiples of ``2**-m``), and ``state_value_distance`` gives the value
spacing of a continuous dimension, i.e. the resolution of the disturbance.

The variation operators are deliberately minimal: a single-bit flip and a
single-point crossover producing one child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError

DISCRETE = "discrete"
CONTINUOUS = "continuous"

_BITS = frozenset((0, 1))
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # a genome's bytes to its 0/1 text


@dataclass(frozen=True)
class EncodingSpec:
    """Genome layout: dimension count, bit width, and per-dimension ranges."""

    dims: int
    bits_per_dim: int
    bounds: tuple[tuple[float, float], ...]
    kind: str = DISCRETE

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ContractViolationError("dims must be at least 1")
        if self.bits_per_dim < 1:
            raise ContractViolationError("bits_per_dim must be at least 1")
        if self.kind not in (DISCRETE, CONTINUOUS):
            raise ContractViolationError(f"unknown encoding kind {self.kind!r}")
        if len(self.bounds) != self.dims:
            raise ContractViolationError(
                f"expected {self.dims} (min, max) pairs, got {len(self.bounds)}"
            )
        for dim, (lo, hi) in enumerate(self.bounds):
            if lo > hi:
                raise ContractViolationError(f"dimension {dim}: empty range [{lo}, {hi}]")
            if self.kind == DISCRETE:
                if lo != int(lo) or hi != int(hi):
                    raise ContractViolationError(
                        f"dimension {dim}: discrete bounds must be integers"
                    )
                if 2 ** self.bits_per_dim < int(hi) + 1 - int(lo):
                    raise ContractViolationError(
                        f"dimension {dim}: {self.bits_per_dim} bits cannot cover "
                        f"{int(hi) + 1 - int(lo)} values"
                    )
            elif hi <= lo:
                raise ContractViolationError(
                    f"dimension {dim}: continuous range must have positive width"
                )

    @property
    def genome_length(self) -> int:
        return self.dims * self.bits_per_dim


@dataclass(frozen=True)
class BitGenome:
    """Immutable bit sequence; serializes as a 0/1 string, MSB first."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _BITS.issuperset(self.bits):
            raise ContractViolationError("genome bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    def as_string(self) -> str:
        return bytes(self.bits).translate(_DIGITS).decode("ascii")


@dataclass(frozen=True)
class OccurrenceStats:
    """Decode probabilities of a discrete dimension's least/most likely values."""

    interval_range: float
    lower_probability: float
    higher_probability: float

    @property
    def probability_ratio(self) -> float:
        """How much likelier the most frequent value is than the least frequent."""
        return self.higher_probability / self.lower_probability


def sub_encoding_value(genome: BitGenome, spec: EncodingSpec, dim: int) -> int:
    """Integer read from one dimension's sub-encoding, most-significant bit first."""
    _check_genome(genome, spec)
    _check_dim(spec, dim)
    shift = (spec.dims - 1 - dim) * spec.bits_per_dim
    return (_as_int(genome) >> shift) & ((1 << spec.bits_per_dim) - 1)


def decode(genome: BitGenome, spec: EncodingSpec) -> tuple[float, ...]:
    """Map a genome to one state value per dimension.

    Discrete dimensions floor into ``[min, max]``; continuous dimensions hit
    ``min`` and ``max`` exactly at the all-zero / all-one sub-encodings.
    """
    _check_genome(genome, spec)
    codes = 2 ** spec.bits_per_dim
    word = _as_int(genome)
    shift = spec.genome_length
    values: list[float] = []
    for lo, hi in spec.bounds:
        shift -= spec.bits_per_dim
        raw = (word >> shift) & (codes - 1)  # this dimension's sub-encoding
        if spec.kind == DISCRETE:
            norm = raw / codes
            values.append(int(math.floor(norm * (hi + 1 - lo) + lo)))
        elif raw == 0:
            values.append(lo)
        elif raw == codes - 1:
            values.append(hi)
        else:
            norm = raw / (codes - 1)
            values.append(norm * (hi - lo) + lo)
    return tuple(values)


def occurrence_stats(spec: EncodingSpec, dim: int = 0) -> OccurrenceStats:
    """Exact decode imbalance of one discrete dimension.

    ``2**m`` codes land on ``span`` values; each value receives either
    ``floor(2**m / span)`` or ``ceil(2**m / span)`` codes.
    """
    if spec.kind != DISCRETE:
        raise ContractViolationError("occurrence statistics require a discrete encoding")
    _check_dim(spec, dim)
    lo, hi = spec.bounds[dim]
    codes = 2 ** spec.bits_per_dim
    span = int(hi) + 1 - int(lo)
    # floor/ceil in integer math keeps both probabilities exact multiples of 2**-m
    return OccurrenceStats(
        interval_range=span / codes,
        lower_probability=(codes // span) / codes,
        higher_probability=(-(-codes // span)) / codes,
    )


def state_value_distance(spec: EncodingSpec, dim: int = 0) -> float:
    """Spacing between neighboring decoded values of a continuous dimension."""
    if spec.kind != CONTINUOUS:
        raise ContractViolationError("state value distance requires a continuous encoding")
    _check_dim(spec, dim)
    lo, hi = spec.bounds[dim]
    return (hi - lo) / (2 ** spec.bits_per_dim - 1)


def random_genome(rng: np.random.Generator, spec: EncodingSpec) -> BitGenome:
    """Uniform random genome of the encoding's full bit length."""
    bits = rng.integers(0, 2, size=spec.genome_length)
    return BitGenome(tuple(int(b) for b in bits))


def mutate(genome: BitGenome, rng: np.random.Generator) -> BitGenome:
    """Flip exactly one uniformly chosen bit; the input genome is untouched."""
    if len(genome) == 0:
        raise ContractViolationError("cannot mutate an empty genome")
    index = int(rng.integers(len(genome)))
    bits = list(genome.bits)
    bits[index] = 1 - bits[index]
    return BitGenome(tuple(bits))


def crossover(parent_a: BitGenome, parent_b: BitGenome, rng: np.random.Generator) -> BitGenome:
    """Single-point crossover producing one child.

    The cut is interior (never 0 or the full length), so the child always
    carries material from both parents when they differ.
    """
    if len(parent_a) != len(parent_b):
        raise ContractViolationError(
            f"crossover parents differ in length: {len(parent_a)} vs {len(parent_b)}"
        )
    if len(parent_a) < 2:
        raise ContractViolationError("crossover needs genomes of length at least 2")
    cut = int(rng.integers(1, len(parent_a)))
    return BitGenome(parent_a.bits[:cut] + parent_b.bits[cut:])


def _as_int(genome: BitGenome) -> int:
    """The whole genome read as one integer, most-significant bit first."""
    return int(bytes(genome.bits).translate(_DIGITS), 2)


def _check_genome(genome: BitGenome, spec: EncodingSpec) -> None:
    if len(genome) != spec.genome_length:
        raise ContractViolationError(
            f"genome length {len(genome)} does not match spec length {spec.genome_length}"
        )


def _check_dim(spec: EncodingSpec, dim: int) -> None:
    if not 0 <= dim < spec.dims:
        raise ContractViolationError(f"dimension index {dim} out of range")
