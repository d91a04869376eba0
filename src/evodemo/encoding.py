"""Bit-string genomes and their decoding into initial states.

A genome is a bit string held as one integer and its length.  It is split
into one sub-encoding of ``bits_per_dim`` bits per state dimension
(most-significant bit first), and each sub-encoding is read as an integer,
normalized, and mapped into that dimension's value range::

    discrete:    norm  = int(e) / 2**m                  in [0, 1)
                 value = floor(norm * (max + 1 - min) + min)

    continuous:  norm  = int(e) / (2**m - 1)            in [0, 1]
                 value = norm * (max - min) + min

Discrete decoding is surjective but not uniform: ``2**m`` codes spread over
``max + 1 - min`` values, so some values are hit by one extra code.
``occurrence_stats`` quantifies that imbalance exactly (both probabilities are
integer multiples of ``2**-m``), and ``state_value_distance`` gives the value
spacing of a continuous dimension, i.e. the resolution of the disturbance.

The variation operators, a single-bit flip and a single-point crossover
producing one child, work on the integers directly; ``evolution.make_offspring``
applies them to a whole generation at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError

DISCRETE = "discrete"
CONTINUOUS = "continuous"


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
    """Immutable bit string of ``length`` bits read as the integer ``value``;
    serializes as a 0/1 string, MSB first."""

    value: int
    length: int

    def __post_init__(self) -> None:
        # exact ints only: a bool or a float that equals an int is not a genome
        if type(self.length) is not int or self.length < 1:
            raise ContractViolationError(
                f"genome length must be a positive int, got {self.length!r}"
            )
        if type(self.value) is not int or self.value < 0 or self.value.bit_length() > self.length:
            raise ContractViolationError(
                f"genome value must be an int in [0, 2**{self.length}), got {self.value!r}"
            )

    def __len__(self) -> int:
        return self.length

    def as_string(self) -> str:
        return format(self.value, f"0{self.length}b")


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


def decode(genome: BitGenome, spec: EncodingSpec) -> tuple[float, ...]:
    """Map a genome to one state value per dimension.

    Discrete dimensions floor into ``[min, max]``; continuous dimensions hit
    ``min`` and ``max`` exactly at the all-zero / all-one sub-encodings.
    """
    _check_genome(genome, spec)
    return decode_values([genome.value], spec)[0]


def decode_values(values: list[int], spec: EncodingSpec) -> list[tuple[float, ...]]:
    """``decode`` for the ``value`` of each of many genomes of the spec's length, one
    dimension at a time, by shifts and masks on Python integers of any bit width."""
    codes = 2 ** spec.bits_per_dim
    shift = spec.genome_length
    columns = []
    for lo, hi in spec.bounds:
        shift -= spec.bits_per_dim
        raws = [(value >> shift) & (codes - 1) for value in values]  # this dimension's codes
        if spec.kind == DISCRETE:
            span = hi + 1 - lo
            columns.append([int(math.floor(raw / codes * span + lo)) for raw in raws])
        else:
            columns.append([
                lo if raw == 0 else hi if raw == codes - 1 else raw / (codes - 1) * (hi - lo) + lo
                for raw in raws
            ])
    return list(zip(*columns))


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


def _check_genome(genome: BitGenome, spec: EncodingSpec) -> None:
    if len(genome) != spec.genome_length:
        raise ContractViolationError(
            f"genome length {len(genome)} does not match spec length {spec.genome_length}"
        )


def _check_dim(spec: EncodingSpec, dim: int) -> None:
    if not 0 <= dim < spec.dims:
        raise ContractViolationError(f"dimension index {dim} out of range")
